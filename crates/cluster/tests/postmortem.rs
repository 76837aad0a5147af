//! Post-mortem fixture: two harts spinning on each other's flag words
//! time out, and the report names each of them once, with the word it
//! polls, and — when the run was traced — carries the timeline's final
//! window.

use issr_cluster::cluster::{Cluster, ClusterParams};
use issr_isa::asm::{Assembler, Program};
use issr_isa::reg::IntReg as R;
use issr_isa::Csr;
use issr_mem::map::TCDM_BASE;

/// Flag word hart 0 would write (never does).
const FLAG_A: u32 = TCDM_BASE + 0x20;
/// Flag word hart 1 would write.
const FLAG_B: u32 = TCDM_BASE + 0x28;

/// Hart 0 spins on hart 1's flag; hart 1 spins on hart 0's flag.
/// Everyone else halts immediately.
fn crossed_spin_program() -> Program {
    let mut a = Assembler::new();
    a.csrr(R::T0, Csr::MHartId);
    let h0 = a.new_label();
    let h1 = a.new_label();
    a.beqz(R::T0, h0);
    a.li(R::T1, 1);
    a.beq(R::T0, R::T1, h1);
    a.halt();
    a.bind(h0);
    a.li_addr(R::T4, FLAG_B);
    let spin0 = a.bind_label();
    a.lw(R::T2, R::T4, 0);
    a.beqz(R::T2, spin0);
    a.halt();
    a.bind(h1);
    a.li_addr(R::T4, FLAG_A);
    let spin1 = a.bind_label();
    a.lw(R::T2, R::T4, 0);
    a.beqz(R::T2, spin1);
    a.halt();
    a.finish().unwrap()
}

#[test]
fn crossed_spins_report_each_stuck_hart_once() {
    let mut cluster = Cluster::new(crossed_spin_program(), ClusterParams::default());
    cluster.enable_tracing(4096, 0);
    let timeout = cluster.run(2_000).expect_err("the crossed spin can never finish");
    let pm = &timeout.post_mortem;
    // Exactly the two spinners are stuck, each with the address it polls.
    let names: Vec<&str> = pm.stuck.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["c0 hart 0", "c0 hart 1"]);
    assert_eq!(pm.stuck[0].polls, Some(FLAG_B));
    assert_eq!(pm.stuck[1].polls, Some(FLAG_A));
    // The timeline carries the spin's Active/Idle heartbeat.
    assert!(!pm.transitions.is_empty(), "the timeline saw transitions");
    // The human rendering names each stuck hart once, with its polled
    // word, and prints the window instead of the tracing hint.
    let text = timeout.to_string();
    assert_eq!(text.matches("pc=").count(), 2, "one line per stuck hart:\n{text}");
    assert!(text.contains(&format!("polling {FLAG_B:#010x}")), "{text}");
    assert!(text.contains("recorded transitions"), "{text}");
    assert!(!text.contains("enable_tracing"), "{text}");
}

#[test]
fn post_mortem_is_timing_neutral() {
    // The same deadlock unarmed and under full tracing times out at the
    // same cycle with identical stuck sets: the post-mortem reads the
    // stuck harts from live state, recording reads only latched state.
    let run = |arm: bool| {
        let mut cluster = Cluster::new(crossed_spin_program(), ClusterParams::default());
        if arm {
            cluster.enable_tracing(1 << 16, 0);
        }
        cluster.run(1_500).expect_err("deadlock")
    };
    let plain = run(false);
    let armed = run(true);
    assert_eq!(plain.post_mortem.stuck, armed.post_mortem.stuck);
    assert_eq!(plain.post_mortem.at, armed.post_mortem.at);
    // The unarmed run has no window, and its timeout says how to get one.
    assert!(plain.post_mortem.transitions.is_empty());
    let text = plain.to_string();
    assert_eq!(text.matches("enable_tracing").count(), 1, "one hint line:\n{text}");
}
