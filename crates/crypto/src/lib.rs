//! Authentication substrate for the `gcl` workspace.
//!
//! The paper assumes "(perfect) digital signatures and public-key
//! infrastructure (PKI)" with *ideal unforgeability* (Section 2). Inside a
//! closed simulation we realize that ideal directly:
//!
//! * [`Sha256`] — a from-scratch FIPS 180-4 SHA-256, tested against the
//!   standard vectors (no external crypto dependency). Each block runs on
//!   the x86 SHA extensions when the CPU reports them at run time, and on
//!   the portable compression function otherwise; the portable path is the
//!   reference the kernel is tested against, bit for bit.
//! * [`Keychain`] / [`Signer`] / [`Pki`] — deterministic MAC-style
//!   signatures. The [`Pki`] holds every key but only ever exposes
//!   *verification*; producing a signature for party `i` requires the
//!   [`Signer`] for `i`. Since the simulator hands each party (honest or
//!   Byzantine) only its own signer, unforgeability holds **by
//!   construction**: adversarial code can replay signatures it has observed
//!   (allowed in the paper's model) but cannot mint new ones.
//! * [`Digestible`] — canonical hashing of protocol payloads without a
//!   serialization framework (protocol messages stay plain Rust values).
//! * [`Verifier`] / [`Verify`] — amortized verification: bounded
//!   verify-once caches for MACs and composite artifacts whose hits are
//!   byte-identical to recomputation (see the [`verify`](crate::Verifier)
//!   module docs for the soundness argument), plus a [`VerifyProbe`]
//!   counting MACs vs. cache hits for the bench rows.
//!
//! # Examples
//!
//! ```
//! use gcl_crypto::{Digest, Keychain};
//! use gcl_types::PartyId;
//!
//! let chain = Keychain::generate(4, 42);
//! let signer = chain.signer(PartyId::new(1));
//! let digest = Digest::of(&("vote", 7u64));
//! let sig = signer.sign(digest);
//! assert!(chain.pki().verify(PartyId::new(1), digest, &sig));
//! assert!(!chain.pki().verify(PartyId::new(2), digest, &sig));
//! ```

// One `unsafe` block, in `sha256`: the call into the SHA-NI kernel, made
// only after run-time feature detection. Everything else stays safe code.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod digest;
mod keys;
mod sha256;
mod verify;

pub use digest::{Digest, Digestible};
pub use keys::{Keychain, Pki, Signature, Signer};
pub use sha256::Sha256;
pub use verify::{MemoTag, Verifier, Verify, VerifyProbe};
