//! Prints one line per shipped-kernel catalog program: its name and the
//! SHA-256 of its words, the format of `baselines/CATALOG.sha256`.

fn main() {
    print!("{}", issr_bench::catalog::digests());
}
