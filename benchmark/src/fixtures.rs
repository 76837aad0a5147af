//! Unit fixtures (`[fixture]` metrics): one layer ticked alone through
//! its public `tick`, [`MIN_TICKS`] ticks per round.
//!
//! Pinned-API tier 3: this file is the only place that drives `Lane`,
//! `IndexJoiner`, `SpAcc`, `Streamer`, `Tcdm`, `Dma` and `MainMemory`
//! directly. The stream units run against `Tcdm::ideal`, as their unit
//! tests do, so each number is "the unit plus one ideal memory port";
//! `core.streamer_idle_ns_per_tick` and `mem.tcdm_idle_ns_per_tick` are
//! the floors to read the others against.

use issr_core::cfg::SPACC_ROW_CAP_RESET;
use issr_core::cfg::{idx_cfg_word, reg, AccDrainSpec, AccFeedSpec, JoinerMode, JoinerSpec};
use issr_core::joiner::IndexJoiner;
use issr_core::lane::{Lane, LaneKind};
use issr_core::serializer::IndexSize;
use issr_core::spacc::SpAcc;
use issr_core::streamer::Streamer;
use issr_isa::decode::decode_all;
use issr_kernels::catalog;
use issr_mem::dma::Dma;
use issr_mem::main_mem::MainMemory;
use issr_mem::map::{MAIN_BASE, TCDM_BANKS, TCDM_BASE, TCDM_SIZE};
use issr_mem::port::{MemPort, MemReq};
use issr_mem::tcdm::Tcdm;
use std::time::Instant;

/// Ticks per timed round of a real traced run.
pub const MIN_TICKS: u64 = 200_000;
/// Ticks per round under `--quick`, where only the plumbing is tested.
pub const QUICK_TICKS: u64 = 2_000;
/// Rounds per fixture; the median round is reported.
const ROUNDS: u64 = 5;

/// Elements per stream job (the job relaunches when it drains).
const JOB_ELEMS: u32 = 2048;
const IDX_AT: u32 = TCDM_BASE + 0x8000;
const IDX_B_AT: u32 = TCDM_BASE + 0xA000;
const VALS_B_AT: u32 = TCDM_BASE + 0xC000;
const OUT_AT: u32 = TCDM_BASE + 0x1_0000;

/// Every fixture metric, by name, in nanoseconds per tick (per
/// instruction for the codec), from rounds of `ticks` ticks each.
#[must_use]
pub fn run_all(ticks: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("isa.codec_ns_per_instr", codec(ticks)),
        ("core.lane_affine_ns_per_tick", lane_affine(ticks)),
        ("core.lane_indirect_ns_per_tick", lane_indirect(ticks)),
        ("core.lane_write_ns_per_tick", lane_write(ticks)),
        ("core.joiner_ns_per_tick", joiner(ticks)),
        ("core.spacc_ns_per_tick", spacc(ticks)),
        ("core.streamer_idle_ns_per_tick", streamer_idle(ticks)),
        ("mem.tcdm_spread_ns_per_tick", tcdm(ticks, &TcdmTraffic::Spread)),
        ("mem.tcdm_conflict_ns_per_tick", tcdm(ticks, &TcdmTraffic::OneBank)),
        ("mem.tcdm_idle_ns_per_tick", tcdm(ticks, &TcdmTraffic::Idle)),
        ("mem.dma_ns_per_tick", dma(ticks)),
        ("mem.main_ns_per_tick", main_memory(ticks)),
    ]
}

/// Median over [`ROUNDS`] of the host nanoseconds per tick of `round`,
/// which ticks its unit through the `ticks` cycles it is handed. The
/// clock runs on from round to round: the units and their ports keep
/// their state.
fn ns_per_tick(ticks: u64, mut round: impl FnMut(std::ops::Range<u64>)) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|r| {
            let t = Instant::now();
            round(r * ticks..(r + 1) * ticks);
            t.elapsed().as_nanos() as f64 / ticks as f64
        })
        .collect();
    crate::stats::median(&samples)
}

fn ideal_memory() -> Tcdm {
    let mut tcdm = Tcdm::ideal(TCDM_BASE, TCDM_SIZE);
    // Sorted 16-bit index streams: stream A holds the even numbers,
    // stream B the multiples of three, so they match every third step.
    let a: Vec<u16> = (0..JOB_ELEMS as u16).map(|i| i * 2).collect();
    let b: Vec<u16> = (0..JOB_ELEMS as u16).map(|i| i * 3).collect();
    tcdm.array_mut().store_u16_slice(IDX_AT, &a);
    tcdm.array_mut().store_u16_slice(IDX_B_AT, &b);
    tcdm
}

/// Ticks a lane against an ideal memory, popping (read jobs) or pushing
/// (write jobs) as the FPU would, relaunching the job whenever the lane
/// drains.
fn lane(ticks: u64, kind: LaneKind, launch: impl Fn(&mut Lane), write: bool) -> f64 {
    let mut tcdm = ideal_memory();
    let mut lane = Lane::new(kind);
    let mut port = MemPort::new();
    ns_per_tick(ticks, |cycles| {
        for now in cycles {
            if lane.is_idle() {
                launch(&mut lane);
            }
            if write {
                if lane.can_push() {
                    lane.push(now);
                }
            } else if lane.can_pop() {
                std::hint::black_box(lane.pop());
            }
            lane.tick(now, &mut port);
            tcdm.tick(now, &mut [&mut port], &[]);
        }
    })
}

fn lane_affine(ticks: u64) -> f64 {
    let launch = |lane: &mut Lane| {
        lane.cfg_write(reg::BOUNDS[0], JOB_ELEMS - 1);
        lane.cfg_write(reg::STRIDES[0], 8);
        lane.cfg_write(reg::RPTR[0], TCDM_BASE);
    };
    lane(ticks, LaneKind::Ssr, launch, false)
}

fn lane_indirect(ticks: u64) -> f64 {
    let launch = |lane: &mut Lane| {
        lane.cfg_write(reg::BOUNDS[0], JOB_ELEMS - 1);
        lane.cfg_write(reg::IDX_CFG, idx_cfg_word(IndexSize::U16, 0));
        lane.cfg_write(reg::DATA_BASE, TCDM_BASE);
        lane.cfg_write(reg::RPTR[0], IDX_AT);
    };
    lane(ticks, LaneKind::Issr, launch, false)
}

fn lane_write(ticks: u64) -> f64 {
    let launch = |lane: &mut Lane| {
        lane.cfg_write(reg::BOUNDS[0], JOB_ELEMS - 1);
        lane.cfg_write(reg::STRIDES[0], 8);
        lane.cfg_write(reg::WPTR[0], OUT_AT);
    };
    lane(ticks, LaneKind::Ssr, launch, true)
}

fn joiner(ticks: u64) -> f64 {
    let mut tcdm = ideal_memory();
    let spec = JoinerSpec {
        mode: JoinerMode::Intersect,
        idx_size: IndexSize::U16,
        count_only: false,
        idx_a: IDX_AT,
        vals_a: TCDM_BASE,
        count_a: u64::from(JOB_ELEMS),
        idx_b: IDX_B_AT,
        vals_b: VALS_B_AT,
        count_b: u64::from(JOB_ELEMS),
    };
    let (mut pa, mut pb) = (MemPort::new(), MemPort::new());
    let mut joiner = IndexJoiner::new(&spec);
    ns_per_tick(ticks, |cycles| {
        for now in cycles {
            if joiner.is_done() {
                joiner = IndexJoiner::new(&spec);
            }
            joiner.tick(now, &mut pa, &mut pb);
            tcdm.tick(now, &mut [&mut pa, &mut pb], &[]);
            while joiner.a_ready() {
                std::hint::black_box(joiner.pop_a());
            }
            while joiner.b_ready() {
                std::hint::black_box(joiner.pop_b());
            }
        }
    })
}

fn spacc(ticks: u64) -> f64 {
    let mut tcdm = ideal_memory();
    let feed = AccFeedSpec {
        idx_base: IDX_AT,
        count: 256,
        idx_size: IndexSize::U16,
        count_only: false,
        cap: SPACC_ROW_CAP_RESET,
    };
    let drain =
        AccDrainSpec { idx_out: OUT_AT, val_out: OUT_AT + 0x1000, idx_size: IndexSize::U16 };
    let mut port = MemPort::new();
    let mut spacc = SpAcc::new();
    let mut lane = Lane::new(LaneKind::Issr);
    // Feed a 256-pair row, drain it, repeat: a launch that does not fit
    // the one-deep job queue yet is retried on a later tick.
    let mut feed_next = true;
    let ns = ns_per_tick(ticks, |cycles| {
        for now in cycles {
            let launched =
                if feed_next { spacc.launch_feed(feed) } else { spacc.launch_drain(drain) };
            feed_next ^= launched;
            if lane.can_push() {
                lane.push(1f64.to_bits());
            }
            spacc.tick(now, &mut port, &mut lane);
            tcdm.tick(now, &mut [&mut port], &[]);
        }
    });
    assert!(spacc.fault().is_none(), "the SpAcc fixture must stream, not freeze on a fault");
    ns
}

fn streamer_idle(ticks: u64) -> f64 {
    let mut streamer = Streamer::sssr_config();
    let mut first = MemPort::new();
    let mut rest: Vec<MemPort> = (1..streamer.n_lanes()).map(|_| MemPort::new()).collect();
    ns_per_tick(ticks, |cycles| {
        for now in cycles {
            streamer.tick(now, &mut first, &mut rest);
        }
    })
}

enum TcdmTraffic {
    /// Every port reads its own bank: all granted every cycle.
    Spread,
    /// Every port reads bank 0: one grant per cycle, the rest wait.
    OneBank,
    /// Nothing pending.
    Idle,
}

/// A cluster's 17 core-side ports (8 workers x 2 lanes + the DMCC)
/// against the 32-bank TCDM.
fn tcdm(ticks: u64, traffic: &TcdmTraffic) -> f64 {
    const PORTS: usize = 17;
    let mut tcdm = Tcdm::banked(TCDM_BASE, TCDM_SIZE, TCDM_BANKS);
    let mut ports: Vec<MemPort> = (0..PORTS).map(|_| MemPort::new()).collect();
    let dma_claimed = vec![false; TCDM_BANKS];
    let stride = 8 * TCDM_BANKS as u32;
    ns_per_tick(ticks, |cycles| {
        for now in cycles {
            for (i, port) in ports.iter_mut().enumerate() {
                while port.take_rsp(now).is_some() {}
                let addr = match traffic {
                    TcdmTraffic::Spread => TCDM_BASE + 8 * i as u32,
                    TcdmTraffic::OneBank => TCDM_BASE + stride * i as u32,
                    TcdmTraffic::Idle => continue,
                };
                if port.can_send() {
                    port.send(MemReq::read(addr));
                }
            }
            tcdm.tick(now, &mut ports[..], &dma_claimed);
        }
    })
}

/// The DMA engine streaming 32 KiB transfers main → TCDM, uncontended.
fn dma(ticks: u64) -> f64 {
    let mut tcdm = issr_mem::array::MemArray::new(TCDM_BASE, TCDM_SIZE);
    let mut main = MainMemory::new(MAIN_BASE, 1 << 20);
    let mut dma = Dma::new(TCDM_BASE, TCDM_SIZE);
    let mut claimed = vec![false; TCDM_BANKS];
    ns_per_tick(ticks, |cycles| {
        for _ in cycles {
            if !dma.busy() {
                dma.set_src(MAIN_BASE);
                dma.set_dst(TCDM_BASE);
                dma.start(32 << 10, false);
            }
            main.begin_dma_cycle();
            claimed.fill(false);
            dma.tick(&mut tcdm, &mut main, &mut claimed, &[], false);
        }
    })
}

/// The main memory serving two narrow ports that read every cycle.
fn main_memory(ticks: u64) -> f64 {
    let mut main = MainMemory::new(MAIN_BASE, 1 << 20);
    let (mut a, mut b) = (MemPort::new(), MemPort::new());
    ns_per_tick(ticks, |cycles| {
        for now in cycles {
            for (i, port) in [&mut a, &mut b].into_iter().enumerate() {
                while port.take_rsp(now).is_some() {}
                port.send(MemReq::read(MAIN_BASE + 8 * i as u32));
            }
            main.begin_dma_cycle();
            main.tick(now, &mut [&mut a, &mut b]);
        }
    })
}

/// `Program::to_words` then `decode_all` over every catalog program,
/// repeated until at least `ticks` instructions went through.
fn codec(ticks: u64) -> f64 {
    let programs: Vec<_> = catalog().into_iter().map(|e| e.program).collect();
    let instrs: u64 = programs.iter().map(|p| p.len() as u64).sum();
    let sweeps = ticks.div_ceil(instrs.max(1));
    let per_tick = ns_per_tick(ticks, |_| {
        for _ in 0..sweeps {
            for p in &programs {
                let words = p.to_words();
                std::hint::black_box(decode_all(&words).expect("catalog programs decode"));
            }
        }
    });
    // `ns_per_tick` divided by `ticks`; the sweeps did a little more.
    per_tick * ticks as f64 / (sweeps * instrs) as f64
}
