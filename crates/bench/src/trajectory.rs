//! One schema table per trajectory file: render, check and diff read it.
//!
//! Every committed `BENCH_*.json` (and the sweep report) is a
//! *schema-plus-rows* document. A [`Schema`] describes one of them once —
//! its tag, its columns in file order, and for each column whether it is
//! part of a row's identity ([`Column::key`]), what every cell must
//! satisfy ([`Need`]) and how a fresh measurement is judged against the
//! committed baseline ([`Gate`]) — plus the one rule no column can state,
//! which rows must exist (`coverage`). The measuring modules declare a
//! `pub static SCHEMA` next to their typed row and hand
//! [`Schema::render`] a cell list per row; nothing else re-describes the
//! file.
//!
//! [`Schema::check`] audits one document in isolation, [`Schema::diff`]
//! judges a fresh one against the baseline, and [`emit`] is the whole
//! tail of a trajectory bin. `Gate::Exact` is for deterministic counters —
//! moved by one is moved. `Gate::Lower(k)` / `Gate::Higher(k)` are cliff
//! detectors for wall-clock columns: `k`× worse than the baseline fails,
//! anything better never does, and a `null` on either side is not
//! compared (the column's `Need` decides whether `null` is allowed).

use crate::json::{read, render, Field, JVal, Row, Value};
use std::process::ExitCode;

/// What a cell must satisfy for its row to count as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Need {
    /// Present; `null` allowed (e.g. a latency nobody committed to).
    Any,
    /// Present and not `null`.
    Some,
    /// The boolean `true` (an audit that must hold on every row).
    True,
    /// A number above zero.
    Positive,
    /// Exactly this string.
    Is(&'static str),
}

impl Need {
    fn holds(self, v: &Value) -> bool {
        match (self, v) {
            (Need::Any, _) => true,
            (Need::Some, v) => *v != Value::Null,
            (Need::True, v) => *v == Value::Bool(true),
            (Need::Positive, Value::Number(x)) => *x > 0.0,
            (Need::Is(s), Value::String(v)) => v == s,
            _ => false,
        }
    }
}

/// How a fresh cell is judged against the baseline cell of the same row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Not compared.
    None,
    /// Must be equal: the column is deterministic.
    Exact,
    /// Lower is better; more than this many times the baseline fails.
    Lower(f64),
    /// Higher is better; less than the baseline over this factor fails.
    Higher(f64),
}

/// One column of a [`Schema`]; build with [`col`].
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// The JSON member name.
    pub name: &'static str,
    /// Whether the column is part of a row's identity.
    pub key: bool,
    /// The per-cell structure rule.
    pub need: Need,
    /// The baseline rule.
    pub gate: Gate,
}

/// A column that must be present and non-null, is not part of the row
/// identity and is not compared against the baseline.
pub const fn col(name: &'static str) -> Column {
    Column {
        name,
        key: false,
        need: Need::Some,
        gate: Gate::None,
    }
}

impl Column {
    /// Makes the column part of the row identity.
    pub const fn key(self) -> Self {
        Column { key: true, ..self }
    }

    /// Replaces the per-cell rule.
    pub const fn need(self, need: Need) -> Self {
        Column { need, ..self }
    }

    /// Replaces the baseline rule.
    pub const fn gate(self, gate: Gate) -> Self {
        Column { gate, ..self }
    }
}

/// The one description of a trajectory file.
#[derive(Debug)]
pub struct Schema {
    /// The document's `schema` member.
    pub tag: &'static str,
    /// The columns of every row, in file order; at least one is a key.
    pub columns: &'static [Column],
    /// Which rows must exist, given every row already passed its cells.
    pub coverage: fn(&[Row]) -> Result<(), String>,
}

fn cell<'r>(row: &'r Row, c: &Column) -> &'r Value {
    row.get(c.name).expect("audited row has every column")
}

/// A cell as it reads in the file, for error messages.
fn show(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Number(x) => x.to_string(),
        Value::String(s) => format!("{s:?}"),
    }
}

impl Schema {
    /// Renders a document: `top` header members, then one row per cell
    /// list, each zipped against the column table.
    ///
    /// # Panics
    ///
    /// Panics if a cell list's length differs from the table's.
    ///
    /// # Examples
    ///
    /// ```
    /// use gcl_bench::json::JVal;
    /// use gcl_bench::trajectory::{col, Schema};
    ///
    /// static EXAMPLE: Schema = Schema {
    ///     tag: "gcl-bench/example/v1",
    ///     columns: &[col("name").key(), col("x")],
    ///     coverage: |_| Ok(()),
    /// };
    /// let rows = [vec![JVal::Str("a".into()), JVal::U64(1)]];
    /// let text = EXAMPLE.render(vec![("mode", JVal::Str("quick".into()))], rows.into_iter());
    /// assert!(text.ends_with("  \"rows\": [\n    {\"name\": \"a\", \"x\": 1}\n  ]\n}\n"));
    /// assert_eq!(EXAMPLE.check(&text), Ok(1));
    /// ```
    pub fn render(&self, top: Vec<Field>, rows: impl Iterator<Item = Vec<JVal>>) -> String {
        let rows = rows.map(|cells| {
            assert_eq!(cells.len(), self.columns.len(), "{}: cell count", self.tag);
            self.columns.iter().map(|c| c.name).zip(cells).collect()
        });
        render(self.tag, &top, rows)
    }

    /// Audits one document; returns its row count.
    ///
    /// # Errors
    ///
    /// The first violation: malformed JSON, a foreign schema tag, a row
    /// whose column set is not the table's, a cell failing its [`Need`],
    /// two rows with one identity, or a coverage gap.
    pub fn check(&self, text: &str) -> Result<usize, String> {
        self.audit(text).map(|(_, rows, _)| rows.len())
    }

    /// [`Schema::check`], handing back the document's header, its rows
    /// and each row's identity.
    pub(crate) fn audit(&self, text: &str) -> Result<(Row, Vec<Row>, Vec<String>), String> {
        let (head, rows) = read(text).map_err(|e| format!("malformed JSON: {e}"))?;
        let tag = head.str("schema");
        if tag != Some(self.tag) {
            return Err(format!("schema is {tag:?}, expected {:?}", self.tag));
        }
        let mut ids = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let id = self.audit_row(row).map_err(|e| format!("row {i}: {e}"))?;
            if ids.contains(&id) {
                return Err(format!("row {i}: duplicate of [{id}]"));
            }
            ids.push(id);
        }
        (self.coverage)(&rows)?;
        Ok((head, rows, ids))
    }

    /// Column set, identity, then every cell's need; returns the identity.
    fn audit_row(&self, row: &Row) -> Result<String, String> {
        if let Some(c) = self.columns.iter().find(|c| row.get(c.name).is_none()) {
            return Err(format!("missing column {:?}", c.name));
        }
        let known = |k: &str| self.columns.iter().any(|c| c.name == k);
        if let Some(k) = row.keys().find(|k| !known(k)) {
            return Err(format!("unknown column {k:?}"));
        }
        let mut id = Vec::new();
        for c in self.columns.iter().filter(|c| c.key) {
            id.push(match cell(row, c) {
                Value::String(s) => format!("{}={s}", c.name),
                Value::Number(x) => format!("{}={x}", c.name),
                other => return Err(format!("identity column {} is {}", c.name, show(other))),
            });
        }
        let id = id.join(" ");
        match self.columns.iter().find(|c| !c.need.holds(cell(row, c))) {
            Some(c) => Err(format!(
                "[{id}] {} is {}, need {:?}",
                c.name,
                show(cell(row, c)),
                c.need
            )),
            None => Ok(id),
        }
    }

    /// Judges a fresh document against the baseline; returns a one-line
    /// summary naming the worst cliff-gated ratio.
    ///
    /// # Errors
    ///
    /// Either document failing [`Schema::check`], a row present on one
    /// side only, or the first gated column that moved too far.
    pub fn diff(&self, baseline: &str, fresh: &str) -> Result<String, String> {
        let (_, new, new_ids) = self.audit(fresh).map_err(|e| format!("fresh: {e}"))?;
        let (_, base, base_ids) = self.audit(baseline).map_err(|e| format!("baseline: {e}"))?;
        if let Some(id) = new_ids.iter().find(|id| !base_ids.contains(id)) {
            return Err(format!(
                "fresh row [{id}] is not in the baseline (regenerate the committed file)"
            ));
        }
        let mut worst: Option<(f64, String)> = None;
        for (id, b) in base_ids.iter().zip(&base) {
            let Some(at) = new_ids.iter().position(|k| k == id) else {
                return Err(format!("baseline row [{id}] has no fresh counterpart"));
            };
            let f = &new[at];
            for c in self.columns {
                let (b, f) = (cell(b, c), cell(f, c));
                let moved = |rule: String| {
                    format!("[{id}] {} went {} -> {} ({rule})", c.name, show(b), show(f))
                };
                let (k, ratio) = match (c.gate, b, f) {
                    (Gate::Exact, ..) if b != f => return Err(moved("exact column".into())),
                    (Gate::Lower(k), Value::Number(x), Value::Number(y)) => (k, y / x),
                    (Gate::Higher(k), Value::Number(x), Value::Number(y)) => (k, x / y),
                    _ => continue,
                };
                if ratio > k {
                    return Err(moved(format!("{ratio:.1}x worse; bound {k}x")));
                }
                if worst.as_ref().is_none_or(|(w, _)| ratio > *w) {
                    worst = Some((ratio, format!("[{id}] {}; bound {k}x", c.name)));
                }
            }
        }
        Ok(match worst {
            Some((ratio, at)) => format!(
                "{} rows matched; worst gated ratio {ratio:.2}x ({at})",
                base_ids.len()
            ),
            None => format!("{} rows matched", base_ids.len()),
        })
    }
}

/// The command line every trajectory bin shares:
/// `[--quick] [--out PATH] [--check BASELINE]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The reduced CI shape was asked for.
    pub quick: bool,
    /// Where the fresh document goes.
    pub out: String,
    /// The committed baseline to check and diff against, if any.
    pub check: Option<String>,
}

impl Args {
    /// Parses the process arguments; on a malformed command line prints
    /// the problem and the usage line and exits. `quick_mode` says
    /// whether the bin has a `--quick` shape at all.
    pub fn parse(bin: &str, default_out: &str, quick_mode: bool) -> Args {
        Self::from_iter(std::env::args().skip(1), default_out, quick_mode).unwrap_or_else(|e| {
            let quick = if quick_mode { "[--quick] " } else { "" };
            eprintln!("error: {e}\nusage: {bin} {quick}[--out PATH] [--check BASELINE]");
            std::process::exit(2)
        })
    }

    fn from_iter(
        mut args: impl Iterator<Item = String>,
        default_out: &str,
        quick_mode: bool,
    ) -> Result<Args, String> {
        let mut parsed = Args {
            quick: false,
            out: default_out.to_string(),
            check: None,
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" if quick_mode => parsed.quick = true,
                "--out" => parsed.out = args.next().ok_or("--out needs a path")?,
                "--check" => parsed.check = Some(args.next().ok_or("--check needs a path")?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }
}

/// The tail of every trajectory bin: echoes `doc` (one row per line) to
/// stderr, writes it to `args.out`, then checks it against `schema` — or,
/// under `--check`, diffs it against the baseline, which checks both.
pub fn emit(schema: &Schema, doc: &str, args: &Args) -> ExitCode {
    let run = || -> Result<String, String> {
        eprint!("{doc}");
        std::fs::write(&args.out, doc).map_err(|e| format!("cannot write {}: {e}", args.out))?;
        let Some(path) = &args.check else {
            return Ok(format!("{} rows pass the schema", schema.check(doc)?));
        };
        let baseline =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let summary = schema
            .diff(&baseline, doc)
            .map_err(|e| format!("vs {path}: {e}"))?;
        Ok(format!("vs {path}: {summary}"))
    };
    match run() {
        Ok(verdict) => {
            eprintln!("{}: {verdict}", args.out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", args.out);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use JVal::{Bool, Null, Str, F1, U64};

    /// One column of every kind: a two-column identity, each `Need`,
    /// each `Gate`.
    static TOY: Schema = Schema {
        tag: "gcl-bench/toy/v1",
        columns: &[
            col("family").key(),
            col("n").key(),
            col("backend").need(Need::Is("async")),
            col("agreement").need(Need::True),
            col("workers").need(Need::Positive),
            col("note").need(Need::Any),
            col("macs").gate(Gate::Exact),
            col("latency_us").need(Need::Any).gate(Gate::Lower(25.0)),
            col("rate").gate(Gate::Higher(3.0)),
        ],
        coverage: |rows| match rows {
            [] => Err("no rows".to_string()),
            _ => Ok(()),
        },
    };

    /// A healthy row's cells, in table order.
    fn toy(family: &str, n: u64) -> Vec<JVal> {
        let healthy = [Str("async".into()), Bool(true), U64(2), Null];
        let measured = [U64(1000), U64(2000), F1(3000.0)];
        [
            vec![Str(family.into()), U64(n)],
            healthy.into(),
            measured.into(),
        ]
        .concat()
    }

    /// `row` with the cell of column `name` replaced.
    fn with(mut row: Vec<JVal>, name: &str, cell: JVal) -> Vec<JVal> {
        let at = TOY.columns.iter().position(|c| c.name == name);
        row[at.expect(name)] = cell;
        row
    }

    fn doc(rows: &[Vec<JVal>]) -> String {
        TOY.render(vec![("mode", Str("test".into()))], rows.iter().cloned())
    }

    /// The document of one `flood` row with one cell replaced.
    fn one(name: &str, cell: JVal) -> String {
        doc(&[with(toy("flood", 4), name, cell)])
    }

    #[test]
    fn render_zips_cells_against_the_table_in_file_order() {
        let text = one("note", Str("hi".into()));
        let row = "    {\"family\": \"flood\", \"n\": 4, \"backend\": \"async\", \
                   \"agreement\": true, \"workers\": 2, \"note\": \"hi\", \"macs\": 1000, \
                   \"latency_us\": 2000, \"rate\": 3000.0}";
        assert_eq!(
            text,
            format!("{{\n  \"schema\": \"gcl-bench/toy/v1\",\n  \"mode\": \"test\",\n  \"rows\": [\n{row}\n  ]\n}}\n")
        );
        assert_eq!(TOY.check(&text), Ok(1));
    }

    #[test]
    fn every_need_is_enforced_on_every_row() {
        for (name, cell, what) in [
            (
                "backend",
                Str("socket".into()),
                "is \"socket\", need Is(\"async\")",
            ),
            ("agreement", Bool(false), "is false, need True"),
            ("workers", U64(0), "is 0, need Positive"),
            ("workers", Str("two".into()), "is \"two\", need Positive"),
            ("macs", Null, "is null, need Some"),
        ] {
            // The broken row is the second one: no rule stops at row 0.
            let bad = with(toy("brb2", 4), name, cell);
            let err = TOY.check(&doc(&[toy("flood", 4), bad])).unwrap_err();
            assert_eq!(err, format!("row 1: [family=brb2 n=4] {name} {what}"));
        }
        // `Any` admits null.
        assert_eq!(TOY.check(&one("latency_us", Null)), Ok(1));
    }

    #[test]
    fn column_drift_and_schema_drift_fail() {
        let good = doc(&[toy("flood", 4)]);
        let err = TOY.check(&good.replace("\"note\": null, ", ""));
        assert_eq!(err, Err("row 0: missing column \"note\"".to_string()));
        let err = TOY.check(&good.replace("\"note\": null", "\"note\": null, \"extra\": 1"));
        assert_eq!(err, Err("row 0: unknown column \"extra\"".to_string()));
        // A rename is both; the missing half is reported.
        let err = TOY.diff(&good, &good.replace("\"latency_us\"", "\"lat_us\""));
        assert_eq!(
            err,
            Err("fresh: row 0: missing column \"latency_us\"".to_string())
        );
        // A document of another schema (or version) is not this table's.
        let v9 = good.replace("toy/v1", "toy/v9");
        let err = TOY.diff(&good, &v9).unwrap_err();
        assert!(
            err.starts_with("fresh: schema is Some(\"gcl-bench/toy/v9\")"),
            "{err}"
        );
        let err = TOY.diff(&v9, &good).unwrap_err();
        assert!(err.starts_with("baseline: schema is"), "{err}");
        assert!(TOY.diff("nope", &good).is_err());
        assert!(TOY.check("{\"schema\": \"gcl-bench/toy/v1\"}").is_err());
        // Coverage runs after the rows.
        assert_eq!(TOY.check(&doc(&[])), Err("no rows".to_string()));
    }

    #[test]
    fn duplicate_identities_fail_the_check() {
        let err = TOY.check(&doc(&[toy("flood", 4), toy("brb2", 4), toy("flood", 4)]));
        assert_eq!(
            err,
            Err("row 2: duplicate of [family=flood n=4]".to_string())
        );
        // An identity cell must be a string or a number.
        let err = TOY.check(&one("n", Null)).unwrap_err();
        assert!(err.contains("identity column n is null"), "{err}");
    }

    #[test]
    fn scale_rows_are_distinct_by_n() {
        // The identity is every key column: the wall engine measures the
        // same family at several shapes, and `n` keeps those rows apart.
        let scales = doc(&[toy("flood", 4), toy("flood", 256), toy("flood", 1024)]);
        assert_eq!(TOY.check(&scales), Ok(3));
        let summary = TOY.diff(&scales, &scales).expect("per-n rows join");
        assert!(summary.starts_with("3 rows matched"), "{summary}");
        // Dropping one scale point is structural drift, not noise.
        let err = TOY.diff(&scales, &doc(&[toy("flood", 4), toy("flood", 256)]));
        assert_eq!(
            err,
            Err("baseline row [family=flood n=1024] has no fresh counterpart".to_string())
        );
    }

    #[test]
    fn missing_and_extra_rows_are_structural_drift() {
        let base = doc(&[toy("flood", 4), toy("bracha", 4)]);
        let err = TOY.diff(&base, &doc(&[toy("flood", 4)])).unwrap_err();
        assert_eq!(
            err,
            "baseline row [family=bracha n=4] has no fresh counterpart"
        );
        let extra = doc(&[toy("flood", 4), toy("bracha", 4), toy("pbft3", 4)]);
        let err = TOY.diff(&base, &extra).unwrap_err();
        assert!(
            err.starts_with("fresh row [family=pbft3 n=4] is not in the baseline"),
            "{err}"
        );
        // Reordering rows is NOT drift: the join is by identity, and the
        // cliff below is found on the row that moved, wherever it sits.
        TOY.diff(&base, &doc(&[toy("bracha", 4), toy("flood", 4)]))
            .expect("order is irrelevant");
        let slow = with(toy("flood", 4), "latency_us", U64(2_000_000));
        let err = TOY
            .diff(&base, &doc(&[toy("bracha", 4), slow]))
            .unwrap_err();
        assert!(err.starts_with("[family=flood n=4] latency_us"), "{err}");
    }

    #[test]
    fn noise_within_factor_passes_and_gross_regression_fails() {
        let base = doc(&[toy("flood", 4)]);
        // Lower is better, bound 25x.
        assert_eq!(
            TOY.diff(&base, &one("latency_us", U64(9000)))
                .expect("4.5x is machine noise"),
            "1 rows matched; worst gated ratio 4.50x ([family=flood n=4] latency_us; bound 25x)"
        );
        TOY.diff(&base, &one("latency_us", U64(50_000)))
            .expect("exactly 25x is still inside");
        assert_eq!(
            TOY.diff(&base, &one("latency_us", U64(50_001)))
                .unwrap_err(),
            "[family=flood n=4] latency_us went 2000 -> 50001 (25.0x worse; bound 25x)"
        );
        // Higher is better, bound 3x.
        TOY.diff(&base, &one("rate", F1(1000.0)))
            .expect("exactly 3x is still inside");
        let err = TOY.diff(&base, &one("rate", F1(900.0))).unwrap_err();
        assert!(
            err.contains("rate went 3000 -> 900 (3.3x worse; bound 3x)"),
            "{err}"
        );
        let err = TOY.diff(&base, &one("rate", F1(0.0))).unwrap_err();
        assert!(
            err.contains("rate went 3000 -> 0"),
            "a stall is a cliff: {err}"
        );
        // An improvement is never a regression, however large.
        TOY.diff(&base, &one("latency_us", U64(10)))
            .expect("fast is fine");
        TOY.diff(&base, &one("rate", F1(9e9)))
            .expect("fast is fine");
    }

    #[test]
    fn null_is_not_compared_and_exact_moves_by_one() {
        let base = doc(&[toy("flood", 4)]);
        // A null on either side of a cliff gate is the column's `Need`
        // to judge, not the diff's.
        let unmeasured = one("latency_us", Null);
        TOY.diff(&base, &unmeasured).expect("fresh null");
        TOY.diff(&unmeasured, &base).expect("baseline null");
        assert_eq!(
            TOY.diff(&unmeasured, &unmeasured).unwrap(),
            "1 rows matched; worst gated ratio 1.00x ([family=flood n=4] rate; bound 3x)"
        );
        // Deterministic columns: one off is off, in either direction.
        for macs in [999, 1001] {
            assert_eq!(
                TOY.diff(&base, &one("macs", U64(macs))).unwrap_err(),
                format!("[family=flood n=4] macs went 1000 -> {macs} (exact column)")
            );
        }
        // Ungated columns may change freely.
        TOY.diff(&base, &one("workers", U64(8))).expect("ungated");
    }

    #[test]
    fn committed_baselines_check_and_diff_cleanly_against_themselves() {
        // The repo-root trajectory files must be valid gate inputs — this
        // is what CI runs (against a fresh measurement) on every push.
        for (path, schema, rows) in [
            ("../../BENCH_sim.json", &crate::throughput::SCHEMA, 10),
            ("../../BENCH_net.json", &crate::netlat::SCHEMA, 21),
            ("../../BENCH_smr.json", &crate::smrload::SCHEMA, 6),
        ] {
            let text = std::fs::read_to_string(path).expect(path);
            assert_eq!(schema.check(&text), Ok(rows), "{path}");
            let summary = schema.diff(&text, &text).expect(path);
            assert!(
                summary.starts_with(&format!("{rows} rows matched; worst gated ratio 1.00x")),
                "{path}: {summary}"
            );
        }
    }

    #[test]
    fn the_bins_share_one_command_line() {
        let parse = |args: &[&str], quick_mode| {
            Args::from_iter(args.iter().map(|s| s.to_string()), "BENCH.json", quick_mode)
        };
        let parsed = parse(&["--check", "b.json", "--quick", "--out", "o.json"], true).unwrap();
        assert_eq!(
            (parsed.quick, parsed.out.as_str(), parsed.check.as_deref()),
            (true, "o.json", Some("b.json"))
        );
        let parsed = parse(&[], false).unwrap();
        assert_eq!(
            (parsed.quick, parsed.out.as_str(), parsed.check),
            (false, "BENCH.json", None)
        );
        // A bin with one shape has no --quick; retired knobs are unknown.
        for retired in ["--quick", "--factor", "--deadline-ms", "--max-regression"] {
            assert!(parse(&[retired, "9"], false).is_err(), "{retired}");
        }
        assert!(parse(&["--out"], true).is_err());
    }
}
