//! The shipped-kernel catalog's program words as a baseline: one line
//! per [`issr_kernels::catalog()`] entry, its name and the SHA-256 of
//! its `Program::to_words()` (little-endian words), in catalog order.
//! `baselines/CATALOG.sha256` holds the committed copy, so a kernel
//! change shows up as a program diff even where no benchmarked cycle
//! moves, and a refactor proves itself word-identical.

use sha2::{Digest, Sha256};

/// Lowercase hex of `bytes`.
#[must_use]
pub fn hex(bytes: impl IntoIterator<Item = u8>) -> String {
    bytes.into_iter().map(|b| format!("{b:02x}")).collect()
}

/// The contents of `baselines/CATALOG.sha256`: `<name> <sha256>` per
/// line.
#[must_use]
pub fn digests() -> String {
    issr_kernels::catalog()
        .iter()
        .map(|e| {
            let mut hasher = Sha256::new();
            for word in e.program.to_words() {
                hasher.update(word.to_le_bytes());
            }
            format!("{} {}\n", e.name, hex(hasher.finalize()))
        })
        .collect()
}
