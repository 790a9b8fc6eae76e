//! FIPS 180-4 SHA-256, implemented from scratch.
//!
//! The workspace's policy is "no external crypto"; this module provides the
//! one hash function everything else (digests, MAC-style signatures, key
//! derivation) is built on. It is an allocation-free implementation of the
//! standard, validated against the NIST test vectors in the unit tests
//! below.
//!
//! Each 64-byte block goes through one compression function, picked per
//! call at run time. On an x86_64 CPU that reports the SHA extensions (plus
//! SSSE3 and SSE4.1), it is a kernel built from the `sha256rnds2` /
//! `sha256msg1` / `sha256msg2` instructions; anywhere else it is the
//! portable code, which other architectures compile alone. The portable
//! path is the reference: the tests run the NIST vectors through it on
//! every host and hold the kernel to it bit for bit, so a digest, MAC or
//! signature never depends on which CPU computed it. Detection is cached
//! by `std`, and nothing selects the path but the CPU.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// An incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use gcl_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub const fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the 32-byte digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let blocks = rest.chunks_exact(64);
        let tail = blocks.remainder();
        for block in blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length, which
        // spills into a second block when fewer than 8 bytes are left.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&(self.len * 8).to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One compression function: folds a 64-byte block into the state.
type Compress = fn(&mut [u32; 8], &[u8; 64]);

/// Compresses one block on the SHA extensions when the CPU has them, and
/// with [`compress_portable`] otherwise. Both give the same state.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    match sha_ni() {
        Some(kernel) => kernel(state, block),
        None => compress_portable(state, block),
    }
}

/// The SHA-NI block function, if this CPU has every feature it needs.
/// `std` caches the detection, so each call costs a few loads.
fn sha_ni() -> Option<Compress> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3")
    {
        return Some(|state, block| {
            #[allow(unsafe_code)]
            // SAFETY: `x86::compress` is safe code that may only run where
            // its `target_feature`s exist. This closure is returned only
            // after the checks above found all of them on this CPU, and a
            // CPU's features do not change while the process runs. (SSE2 is
            // part of the x86_64 baseline.)
            unsafe {
                x86::compress(state, block)
            }
        });
    }
    None
}

/// The reference compression function, straight from FIPS 180-4 §6.2.2.
/// Every host can run it; the SHA-NI kernel is tested against it.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, x) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(x);
    }
}

/// The compression function on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// `_mm_sha256rnds2_epu32` keeps the working variables as two vectors,
    /// (a, b, e, f) and (c, d, g, h), highest lane first, and takes two
    /// rounds' `K[t] + W[t]` in the low two lanes of its third operand.
    /// Vectors are built with `_mm_set_epi32` and read back lane by lane, so
    /// the kernel makes no pointer loads or stores.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let [a, b, c, d, e, f, g, h] = state.map(|x| x as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        let word =
            |i: usize| i32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        // The last 16 message words W[t], four to a vector, lowest lane
        // first. From round 16 on, each group of four rounds slides in the
        // next four words.
        let mut w: [__m128i; 4] =
            [0, 16, 32, 48].map(|i| _mm_set_epi32(word(i + 12), word(i + 8), word(i + 4), word(i)));
        for (j, k) in K.chunks_exact(4).enumerate() {
            let wj = if j < 4 {
                w[j]
            } else {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
                let w7 = _mm_alignr_epi8::<4>(w[3], w[2]);
                let next =
                    _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(w[0], w[1]), w7), w[3]);
                w = [w[1], w[2], w[3], next];
                next
            };
            let kw = _mm_add_epi32(
                wj,
                _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
            );
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, kw);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(kw));
        }
        let worked = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ];
        for (word, x) in state.iter_mut().zip(worked) {
            *word = word.wrapping_add(x as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// NIST / RFC 6234 vectors: empty, one block, the 448-bit message whose
    /// length spills into a second padding block, 896 bits, and a million
    /// `a`s.
    fn nist_vectors() -> Vec<(Vec<u8>, &'static str)> {
        vec![
            (
                b"".to_vec(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                    .to_vec(),
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ]
    }

    /// Pads `msg` by FIPS 180-4 §5.1.1, independently of `finalize`, and
    /// hashes it block by block with `compress`.
    fn digest_with(compress: Compress, msg: &[u8]) -> [u8; 32] {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// splitmix64: a reproducible stream of test bytes.
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// The SHA-NI kernel, or `None` after saying why the test skips it.
    fn kernel_or_skip(test: &str) -> Option<Compress> {
        let kernel = sha_ni();
        if kernel.is_none() {
            println!("{test}: no SHA-NI on this CPU; the kernel half was skipped");
        }
        kernel
    }

    #[test]
    fn nist_vectors_on_the_portable_path() {
        for (msg, want) in nist_vectors() {
            assert_eq!(hex(&digest_with(compress_portable, &msg)), want);
        }
    }

    #[test]
    fn nist_vectors_on_the_sha_ni_kernel() {
        if let Some(kernel) = kernel_or_skip("nist_vectors_on_the_sha_ni_kernel") {
            for (msg, want) in nist_vectors() {
                assert_eq!(hex(&digest_with(kernel, &msg)), want);
            }
        }
    }

    #[test]
    fn sha_ni_kernel_matches_portable_on_random_blocks() {
        let Some(kernel) = kernel_or_skip("sha_ni_kernel_matches_portable_on_random_blocks") else {
            return;
        };
        for seed in 0..10_000u64 {
            let raw = bytes(seed, 96);
            let mut state = [0u32; 8];
            for (word, chunk) in state.iter_mut().zip(raw[64..].chunks_exact(4)) {
                *word = u32::from_le_bytes(chunk.try_into().unwrap());
            }
            let block: &[u8; 64] = raw[..64].try_into().unwrap();
            let (mut portable, mut accelerated) = (state, state);
            compress_portable(&mut portable, block);
            kernel(&mut accelerated, block);
            assert_eq!(portable, accelerated, "seed {seed}");
        }
    }

    /// Every length up to 16 blocks, so each padding edge the in-place
    /// `finalize` handles (55, 56, 63, 64, 119, 120 bytes, ...) is covered:
    /// one-shot, fed in pieces, and against the portable reference.
    #[test]
    fn every_length_to_1024_matches_split_updates_and_the_reference() {
        for len in 0..=1024 {
            let msg = bytes(len as u64, len);
            let one_shot = Sha256::digest(&msg);
            assert_eq!(one_shot, digest_with(compress_portable, &msg), "len {len}");
            for piece in [1, 7, 55, 63, 64, 65] {
                let mut h = Sha256::new();
                for chunk in msg.chunks(piece) {
                    h.update(chunk);
                }
                assert_eq!(h.finalize(), one_shot, "len {len}, pieces of {piece}");
            }
        }
    }

    #[test]
    fn vector_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn vector_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn vector_two_blocks() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn vector_448_bits_exact_padding_boundary() {
        // 56 bytes: forces the length into a second padding block.
        let msg = [b'a'; 56];
        let mut h = Sha256::new();
        h.update(&msg);
        let one_shot = Sha256::digest(&msg);
        assert_eq!(h.finalize(), one_shot);
    }

    #[test]
    fn vector_million_a() {
        let chunk = [b'a'; 1000];
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..255u8).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 128, 200, 255] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"x"), Sha256::digest(b"y"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\0"));
    }

    proptest::proptest! {
        #[test]
        fn incremental_any_split(data: Vec<u8>, split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            proptest::prop_assert_eq!(h.finalize(), Sha256::digest(&data));
        }
    }
}
