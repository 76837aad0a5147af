//! The paper scoreboard: every number the paper's evaluation states
//! next to the one this model reproduces, then the figures and tables
//! behind them (Fig. 4a–4d, the CsrMM check, area, §V).
//!
//! Pass `--json <path>` to also write the board as `BENCH_paper.json`.

use issr_bench::telemetry;

fn main() {
    let board = issr_bench::paper::scoreboard();
    print!("{}", board.markdown());
    if let Some(path) = telemetry::json_arg() {
        board.telemetry().write(&path).expect("write BENCH json");
        println!("\nwrote {}", path.display());
    }
}
