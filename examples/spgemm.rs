//! Sparse-output streaming end to end: the SpAcc write-stream sparse
//! accumulator (`issr-core::spacc`) union-merges each Gustavson row
//! expansion on the fly and drains compressed CSR rows to memory, so
//! row-wise SpGEMM collapses to one streamed `fmul` per partial product
//! — against the ~14-instruction software merge step of BASE. The same
//! kernel then row-stripes across the eight-worker cluster.
//!
//! ```sh
//! cargo run --release --example spgemm
//! ```

use issr::kernels::cluster_spgemm::run_cluster_spgemm;
use issr::kernels::spgemm::run_spgemm;
use issr::kernels::variant::Variant;
use issr::sparse::{gen, reference};

fn main() {
    // C = A·B: 32x128 times 128x384, a few nonzeros per row each.
    let (nrows, inner, ncols, a_nnz, b_nnz) = (32, 128, 384, 4, 24);
    let mut rng = gen::rng(3);
    let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, nrows, inner, a_nnz);
    let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, inner, ncols, b_nnz);
    let expect = reference::spgemm(&a, &b).with_index_width::<u32>();

    println!(
        "SpGEMM: {nrows}x{inner} ({a_nnz} nnz/row) times {inner}x{ncols} ({b_nnz} nnz/row) \
         -> {} output nonzeros\n",
        expect.nnz()
    );
    let mut base_cycles = 0;
    for variant in [Variant::Base, Variant::Issr] {
        let run = run_spgemm(variant, &a, &b).expect("kernel finishes");
        assert_eq!(run.c.ptr(), expect.ptr(), "row pointers must match the oracle");
        assert_eq!(run.c.idcs(), expect.idcs(), "column indices must match the oracle");
        for (got, want) in run.c.vals().iter().zip(expect.vals()) {
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
        }
        let cycles = run.summary.metrics.roi.cycles;
        if variant == Variant::Base {
            base_cycles = cycles;
            println!("{variant:>5}: {cycles:6} cycles (software merge accumulation)");
        } else {
            let spacc = run.summary.spacc_stats;
            println!(
                "{variant:>5}: {cycles:6} cycles ({:.1}x; SpAcc merged {} pairs in {} feeds, \
                 {} duplicate hits, {} row drains)",
                base_cycles as f64 / cycles as f64,
                spacc.pairs_in,
                spacc.feeds,
                spacc.merges,
                spacc.drains,
            );
        }
    }

    // The cluster version with DEVICE-OWNED allocation in one pass: the
    // workers take rows cyclically, and each row's owner reads the row
    // length from the SpAcc, waits for its predecessor's offset, chains
    // the next one on and drains the row into its exact slot — no host
    // row pointer and no counting pre-pass.
    let cluster = run_cluster_spgemm(Variant::Issr, &a, &b).expect("cluster finishes");
    assert!(cluster.summary.traps.is_empty());
    assert_eq!(cluster.c.ptr(), expect.ptr(), "device-computed row pointer matches the oracle");
    assert_eq!(cluster.c.idcs(), expect.idcs());
    let active = cluster.summary.spacc_stats.iter().filter(|s| s.drains > 0).count();
    let overlap: u64 = cluster.summary.spacc_stats.iter().map(|s| s.overlap_cycles).sum();
    println!(
        "\ncluster (device-owned alloc, one pass): {} cycles across 8 workers \
         ({active} SpAcc units active, {overlap} drain/feed overlap cycles)",
        cluster.summary.cycles
    );
    println!("\nall outputs agree with the host reference::spgemm oracle");
}
