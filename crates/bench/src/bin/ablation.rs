//! Ablation studies of two design choices: worker-count scaling of the
//! cluster CsrMV and the contribution of the instruction-cache model.
//!
//! Pass `--json <path>` to also write the rows as `BENCH_ablation.json`.

use issr_bench::telemetry;

fn main() {
    let ablation = issr_bench::ablation::ablation();
    print!("{}", ablation.markdown);
    if let Some(path) = telemetry::json_arg() {
        ablation.telemetry.write(&path).expect("write BENCH json");
        println!("wrote {}", path.display());
    }
}
