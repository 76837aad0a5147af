//! The multi-cluster system model and its run harness.
//!
//! N clusters — each the paper's eight-worker Snitch cluster with its
//! private TCDM and 512-bit DMA engine — share one main memory behind a
//! bandwidth-arbitrated interconnect. Arbitration is a rotating
//! round-robin grant: every system cycle the shared memory's per-cycle
//! word budget is reset and the clusters tick in rotated order, so the
//! first cluster in this cycle's order draws bandwidth first and the
//! rotation makes the grant fair over time. Denied word requests stall
//! the requesting DMA engine for the cycle and are counted
//! ([`issr_mem::main_mem::MainMemStats::dma_denied`],
//! [`issr_mem::dma::DmaStats::stall_cycles`]) — the contention signal
//! the scaling benchmarks report.
//!
//! Inter-cluster synchronization uses main-memory words: ordinary flag
//! words over the narrow (core) path, plus one hardware fetch-and-add
//! ticket counter ([`System::set_work_queue`]) from which the clusters'
//! DMCCs claim row-panel tiles of a shared work queue.

use issr_cluster::cluster::{longest_roi, Cluster, ClusterParams, ClusterSummary};
use issr_isa::asm::Program;
use issr_mem::dma::DmaStats;
use issr_mem::main_mem::{MainMemStats, MainMemory};
use issr_mem::map::{MAIN_BASE, MAIN_SIZE};
use issr_snitch::attr::CcAttribution;
use issr_snitch::cc::SimTimeout;
use issr_snitch::core::Trap;
use issr_trace::{merge::merge_all, timeline, CriticalPath, PostMortem};

/// System configuration.
#[derive(Clone, Copy, Debug)]
pub struct SystemParams {
    /// Clusters sharing the main memory.
    pub n_clusters: usize,
    /// Per-cluster configuration (all clusters identical).
    pub cluster: ClusterParams,
    /// Aggregate main-memory bandwidth in words per cycle per direction,
    /// shared by all clusters. The default (16) is two cluster ports'
    /// worth: one cluster cannot saturate it alone, four contend — the
    /// regime the scaling studies probe.
    pub dma_words_per_cycle: u32,
    /// Per-transfer main-memory access latency in cycles (burst setup).
    pub dma_latency: u64,
}

impl Default for SystemParams {
    fn default() -> Self {
        Self {
            n_clusters: 2,
            cluster: ClusterParams::default(),
            dma_words_per_cycle: 16,
            dma_latency: 8,
        }
    }
}

/// Result of a completed system run.
#[derive(Clone, Debug)]
pub struct SystemSummary {
    /// Total cycles until every cluster went quiescent.
    pub cycles: u64,
    /// Per-cluster summaries (cycles, worker metrics, DMA/TCDM stats).
    pub clusters: Vec<ClusterSummary>,
    /// Shared main-memory interface counters (contention included).
    pub main: MainMemStats,
    /// Cycles in which at least one cluster moved DMA words while at
    /// least one worker (any cluster) was inside its ROI — the
    /// DMA/compute overlap the double-buffered kernels exist for.
    pub overlap_cycles: u64,
}

impl SystemSummary {
    /// Total multiply-accumulates retired across all clusters' workers.
    #[must_use]
    pub fn total_fmadds(&self) -> u64 {
        self.clusters.iter().map(ClusterSummary::total_fmadds).sum()
    }

    /// All traps across the system, tagged with their cluster index.
    #[must_use]
    pub fn traps(&self) -> Vec<(usize, Trap)> {
        self.clusters
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.traps.iter().map(move |t| (i, *t)))
            .collect()
    }

    /// All clusters' DMA statistics folded into one (the single
    /// aggregation path every total below reads from).
    #[must_use]
    pub fn merged_dma_stats(&self) -> DmaStats {
        merge_all(self.clusters.iter().map(|c| &c.dma_stats))
    }

    /// Total DMA words moved by all clusters (both directions).
    #[must_use]
    pub fn total_dma_words(&self) -> u64 {
        let dma = self.merged_dma_stats();
        dma.words_in + dma.words_out
    }

    /// Total cycles DMA engines stalled on denied main-memory bandwidth.
    #[must_use]
    pub fn total_dma_stalls(&self) -> u64 {
        self.merged_dma_stats().stall_cycles
    }

    /// Fraction of DMA word requests denied by the shared interface —
    /// zero on an uncontended run, grows with cluster count.
    #[must_use]
    pub fn contention_ratio(&self) -> f64 {
        let served = self.main.wide_beats;
        if served + self.main.dma_denied == 0 {
            return 0.0;
        }
        self.main.dma_denied as f64 / (served + self.main.dma_denied) as f64
    }

    /// The system's critical path: the blame walk from the worker with
    /// the longest ROI of any cluster — the rule
    /// [`ClusterAttribution::critical_path`] applies inside one —
    /// falling back to the DMCCs when no worker opened an ROI. One
    /// hart's ROI, so never longer than the run.
    ///
    /// [`ClusterAttribution::critical_path`]:
    /// issr_cluster::cluster::ClusterAttribution::critical_path
    #[must_use]
    pub fn critical_path(&self) -> CriticalPath {
        let attrs = || self.clusters.iter().map(|c| &c.attr);
        longest_roi(attrs().flat_map(|a| &a.workers))
            .or_else(|| longest_roi(attrs().map(|a| &a.dmcc)))
            .map(CcAttribution::critical_path)
            .unwrap_or_default()
    }
}

/// N clusters behind one bandwidth-arbitrated main memory.
#[derive(Debug)]
pub struct System {
    /// The clusters (identical programs; `mhartid` dispatches within a
    /// cluster, the work queue distinguishes clusters dynamically).
    pub clusters: Vec<Cluster>,
    /// The shared main memory.
    pub main: MainMemory,
    /// Round-robin rotation pointer (this cycle's first-granted cluster).
    rr: usize,
    now: u64,
    overlap_cycles: u64,
    /// Per-cluster quiescence, memoized by [`System::run`]: halting is
    /// terminal, so a cluster once quiescent is never re-checked.
    done: Vec<bool>,
    /// Whether the ambient host profiler was installed when the run
    /// began — latched by [`System::run`], so no tick looks it up.
    profiled: bool,
}

impl System {
    /// Builds the system; every cluster runs `program` (SPMD within the
    /// cluster via `mhartid`, dynamic tile claims across clusters).
    #[must_use]
    pub fn new(program: Program, params: SystemParams) -> Self {
        assert!(params.n_clusters >= 1, "a system needs at least one cluster"); // gate-allow: host-API construction precondition
        let clusters = (0..params.n_clusters)
            .map(|_| Cluster::new_for_system(program.clone(), params.cluster))
            .collect();
        let main = MainMemory::new(MAIN_BASE, MAIN_SIZE)
            .with_dma_bandwidth(params.dma_words_per_cycle)
            .with_dma_latency(params.dma_latency);
        Self {
            clusters,
            main,
            rr: 0,
            now: 0,
            overlap_cycles: 0,
            done: vec![false; params.n_clusters],
            profiled: false,
        }
    }

    /// Enables tracing — the only way a system records a timeline: arms
    /// every cluster's timeline with a ring of the most recent `cap`
    /// transitions over every hart, worker lane and DMA engine plus the
    /// FIFO/DMA counter tracks (cluster index = Perfetto process id),
    /// sampled each cycle from then on. A timeline only *reads* latched
    /// per-tick state, so enabling it cannot change timing.
    pub fn enable_tracing(&mut self, cap: usize) {
        for (ci, cluster) in self.clusters.iter_mut().enumerate() {
            cluster.enable_tracing(cap, ci as u32);
        }
    }

    /// The Chrome trace-event document of every armed cluster timeline
    /// (per-cluster event lists concatenated, open residencies closed
    /// at the current cycle), or `None` unless
    /// [`System::enable_tracing`] was called. A timed-out traced run's
    /// post-mortem window is the tail of this document. Recording
    /// continues if the system keeps running afterwards.
    #[must_use]
    pub fn trace_json(&self) -> Option<issr_trace::Json> {
        let timelines: Vec<_> = self.clusters.iter().filter_map(Cluster::timeline).collect();
        if timelines.is_empty() {
            return None;
        }
        let events = timelines.iter().flat_map(|tl| tl.chrome_events(self.now)).collect();
        Some(timeline::chrome_trace(events, timelines.iter().map(|tl| tl.evicted()).sum()))
    }

    /// Designates `addr` (in main memory) as the hardware fetch-and-add
    /// ticket counter of the shared work queue and zeroes it.
    pub fn set_work_queue(&mut self, addr: u32) {
        self.main.array_mut().store_u64(addr, 0);
        self.main.set_fetch_add_word(addr);
    }

    /// The system-wide post-mortem: every cluster's report merged (stuck
    /// harts, and the timeline windows of a traced system).
    #[must_use]
    pub fn post_mortem(&self) -> PostMortem {
        PostMortem::merge(
            self.clusters.iter().enumerate().map(|(ci, c)| c.post_mortem(ci)).collect(),
        )
    }

    /// Whether every cluster halted and drained.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.clusters.iter().all(Cluster::quiescent)
    }

    /// Advances the whole system one cycle: one shared-bandwidth window,
    /// clusters granted in rotating round-robin order.
    pub fn tick(&mut self) {
        if self.profiled {
            issr_trace::host::cycle();
        }
        self.main.begin_dma_cycle();
        let n = self.clusters.len();
        let mut dma_moved = false;
        let mut in_roi = false;
        for i in 0..n {
            let k = (self.rr + i) % n;
            let activity = self.clusters[k].tick_shared(&mut self.main);
            dma_moved |= activity.dma_words_moved > 0;
            in_roi |= activity.workers_in_roi;
        }
        if dma_moved && in_roi {
            self.overlap_cycles += 1;
        }
        self.rr = (self.rr + 1) % n;
        self.now += 1;
    }

    /// Whether any hart of any cluster has latched a trap.
    #[must_use]
    pub fn trapped(&self) -> bool {
        self.clusters.iter().any(Cluster::trapped)
    }

    /// Runs to quiescence. The run records no timeline unless
    /// [`System::enable_tracing`] armed them.
    ///
    /// # Errors
    /// Returns [`SimTimeout`] if the system does not finish in
    /// `max_cycles` (deadlock or bug); its post-mortem lists every hart
    /// that was not quiescent, with its cluster prefix and current PC,
    /// and carries a final window only from a traced run (the kernel
    /// harnesses replay a timed-out run with tracing armed to get one).
    pub fn run(&mut self, max_cycles: u64) -> Result<SystemSummary, SimTimeout> {
        self.run_until(max_cycles, |_| false)
    }

    /// Runs to quiescence, or until `stop` holds after a cycle (a
    /// harness whose harts wait on each other ends at the first trap,
    /// [`System::trapped`]).
    ///
    /// # Errors
    /// As [`System::run`].
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        stop: impl Fn(&Self) -> bool,
    ) -> Result<SystemSummary, SimTimeout> {
        self.profiled = issr_trace::host::is_enabled();
        for cluster in &mut self.clusters {
            cluster.profile_host(self.profiled);
        }
        let deadline = self.now.saturating_add(max_cycles);
        while self.now < deadline {
            self.tick();
            // Quiescence is terminal (halting is sticky, queues only
            // drain), so clusters already seen quiescent are skipped —
            // and a cluster whose DMCC still runs cannot be quiescent,
            // which spares the walk over its workers.
            let mut all = true;
            for (done, cluster) in self.done.iter_mut().zip(&self.clusters) {
                if !*done {
                    *done = cluster.dmcc.core.halted() && cluster.quiescent();
                }
                all &= *done;
            }
            if all || stop(self) {
                return Ok(self.summary());
            }
        }
        if let Some(first) = self.clusters.first_mut() {
            first.mark(format!("sim timeout after {max_cycles} cycles"));
        }
        Err(SimTimeout::from_post_mortem(max_cycles, self.post_mortem()))
    }

    /// Snapshot of the run statistics.
    #[must_use]
    pub fn summary(&self) -> SystemSummary {
        SystemSummary {
            cycles: self.now,
            clusters: self.clusters.iter().map(Cluster::summary).collect(),
            main: self.main.stats,
            overlap_cycles: self.overlap_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_isa::asm::Assembler;
    use issr_isa::reg::IntReg as R;
    use issr_isa::Csr;
    use issr_mem::map::TCDM_BASE;

    fn params(n_clusters: usize) -> SystemParams {
        SystemParams { n_clusters, ..SystemParams::default() }
    }

    /// Every cluster runs the same SPMD program against its private
    /// TCDM; the system reaches quiescence with all results in place.
    #[test]
    fn clusters_execute_independently() {
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        a.mul(R::T1, R::T0, R::T0);
        a.slli(R::T2, R::T0, 3);
        a.li_addr(R::T3, TCDM_BASE);
        a.add(R::T2, R::T2, R::T3);
        a.sw(R::T1, R::T2, 0);
        a.halt();
        let mut sys = System::new(a.finish().unwrap(), params(3));
        let summary = sys.run(10_000).unwrap();
        for cluster in &sys.clusters {
            for hart in 0..9u32 {
                assert_eq!(cluster.tcdm.array().load_u32(TCDM_BASE + hart * 8), hart * hart);
            }
        }
        assert_eq!(summary.clusters.len(), 3);
        assert!(summary.traps().is_empty());
    }

    /// Resuming a finished system with an unbounded budget must not
    /// overflow the deadline.
    #[test]
    fn unbounded_budget_survives_a_resumed_run() {
        let mut a = Assembler::new();
        a.halt();
        let mut sys = System::new(a.finish().unwrap(), params(2));
        sys.run(u64::MAX).expect("first run halts");
        sys.run(u64::MAX).expect("resumed run stays quiescent");
    }

    /// Builds a program whose DMCCs copy `words` words from main memory
    /// into their cluster's TCDM; workers halt immediately.
    fn dma_pull_program(words: u32, n_workers: u32) -> Program {
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        let dmcc = a.new_label();
        a.li(R::T1, i64::from(n_workers));
        a.beq(R::T0, R::T1, dmcc);
        a.halt();
        a.bind(dmcc);
        a.li_addr(R::A0, MAIN_BASE);
        a.li_addr(R::A1, TCDM_BASE + 0x1000);
        a.dmsrc(R::A0, R::ZERO);
        a.dmdst(R::A1, R::ZERO);
        a.li(R::A2, i64::from(words) * 8);
        a.dmcpyi(R::ZERO, R::A2, 0);
        let poll = a.bind_label();
        a.dmstati(R::T2, 0);
        a.beqz(R::T2, poll);
        a.halt();
        a.finish().unwrap()
    }

    /// Two clusters pulling concurrently over a one-port budget each see
    /// roughly half the solo throughput, and the contention counters
    /// move.
    #[test]
    fn shared_bandwidth_contention_is_measured() {
        let words = 512u32;
        let n_workers = ClusterParams::default().n_workers as u32;
        let solo = {
            let mut p = params(1);
            p.dma_words_per_cycle = 8;
            p.dma_latency = 0;
            let mut sys = System::new(dma_pull_program(words, n_workers), p);
            sys.run(100_000).unwrap().cycles
        };
        let mut p = params(2);
        p.dma_words_per_cycle = 8;
        p.dma_latency = 0;
        let mut sys = System::new(dma_pull_program(words, n_workers), p);
        let summary = sys.run(100_000).unwrap();
        assert!(
            summary.cycles as f64 > 1.7 * solo as f64,
            "two clusters on one port must nearly halve throughput \
             (solo {solo}, contended {})",
            summary.cycles
        );
        assert!(summary.main.dma_denied > 0, "denials must be counted");
        assert!(summary.total_dma_stalls() > 0, "stalled engines must be counted");
        assert!(summary.contention_ratio() > 0.1);
        // Both clusters pulled the full block.
        for c in &sys.clusters {
            assert_eq!(c.dma.stats().words_in, u64::from(words));
        }
    }

    /// DMCCs across clusters claim unique, gap-free tickets from the
    /// hardware fetch-and-add work queue.
    #[test]
    fn work_queue_tickets_are_unique() {
        let n_workers = ClusterParams::default().n_workers as u32;
        let queue = MAIN_BASE + 0x100;
        let claims = 4u32;
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        let dmcc = a.new_label();
        a.li(R::T1, i64::from(n_workers));
        a.beq(R::T0, R::T1, dmcc);
        a.halt();
        a.bind(dmcc);
        // Claim `claims` tickets, store each to a TCDM log slot.
        a.li(R::S0, 0);
        a.li_addr(R::S1, TCDM_BASE + 0x40);
        a.li_addr(R::S2, queue);
        let head = a.bind_label();
        a.lw(R::T2, R::S2, 0); // fetch-and-add claim
        a.sw(R::T2, R::S1, 0);
        a.addi(R::S1, R::S1, 8);
        a.addi(R::S0, R::S0, 1);
        a.li(R::T3, i64::from(claims));
        a.blt(R::S0, R::T3, head);
        a.halt();
        let mut sys = System::new(a.finish().unwrap(), params(3));
        sys.set_work_queue(queue);
        sys.run(100_000).unwrap();
        let mut seen: Vec<u32> = sys
            .clusters
            .iter()
            .flat_map(|c| (0..claims).map(|i| c.tcdm.array().load_u32(TCDM_BASE + 0x40 + i * 8)))
            .collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..3 * claims).collect();
        assert_eq!(seen, expect, "tickets must be unique and gap-free");
        assert_eq!(sys.main.array().load_u64(queue), u64::from(3 * claims));
    }

    /// Tracing is observational: enabling it changes no cycle counts,
    /// and the export carries one named track per hart, per lane and
    /// per DMA engine in every cluster.
    #[test]
    fn tracing_is_timing_neutral_and_tracks_every_unit() {
        let n_workers = ClusterParams::default().n_workers;
        let build = || dma_pull_program(128, n_workers as u32);
        let plain = System::new(build(), params(2)).run(100_000).unwrap();
        let mut sys = System::new(build(), params(2));
        sys.enable_tracing(4096);
        let traced = sys.run(100_000).unwrap();
        assert_eq!(traced.cycles, plain.cycles, "tracing must not alter timing");
        assert_eq!(traced.total_dma_words(), plain.total_dma_words());
        // Tracks: per cluster, one per worker hart + 2 lanes each,
        // the DMCC and the DMA engine.
        let per_cluster = n_workers + 2 * n_workers + 1 + 1;
        for cluster in &sys.clusters {
            let timeline = cluster.timeline().expect("tracing enabled");
            assert_eq!(timeline.unit_names().len(), per_cluster);
        }
        // Per-cluster DMA attribution covers every cluster cycle.
        for c in &traced.clusters {
            assert_eq!(c.attr.dma.total(), c.cycles);
        }
        let doc = sys.trace_json().expect("export");
        let events = doc.get("traceEvents").and_then(issr_trace::Json::as_arr).expect("events");
        let count = |ph| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(issr_trace::Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(count("M"), 2 * per_cluster, "every track must be named");
        assert!(count("X") > 0, "the DMA pull must produce busy spans");
    }

    /// Workers halt; each DMCC spins on a flag nobody sets — an
    /// active/idle heartbeat that never ends.
    fn dmcc_spin_program() -> Program {
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        let dmcc = a.new_label();
        a.li(R::T1, ClusterParams::default().n_workers as i64);
        a.beq(R::T0, R::T1, dmcc);
        a.halt();
        a.bind(dmcc);
        a.li_addr(R::T4, TCDM_BASE + 0x20);
        let spin = a.bind_label();
        a.lw(R::T2, R::T4, 0);
        a.beqz(R::T2, spin);
        a.halt();
        a.finish().unwrap()
    }

    /// A dead system run is reported once: each stuck DMCC appears in
    /// the timeout's text exactly once, from its post-mortem.
    #[test]
    fn spinning_dmccs_are_each_reported_once() {
        let timeout = System::new(dmcc_spin_program(), params(2)).run(600).expect_err("spins");
        let names: Vec<&str> = timeout.post_mortem.stuck.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["c0 dmcc", "c1 dmcc"]);
        let text = timeout.to_string();
        assert_eq!(text.matches("pc=").count(), 2, "one line per stuck hart:\n{text}");
    }

    /// A traced run that times out: the post-mortem's window and the
    /// exported trace come from the same per-cluster rings — every
    /// retained transition is a span of the export and nothing else is
    /// — and the timeout is marked at the moment of death.
    #[test]
    fn traced_timeout_post_mortem_is_the_tail_of_the_trace() {
        use issr_trace::{Json, StallCause};
        // The DMCC heartbeat overflows a small ring.
        let mut sys = System::new(dmcc_spin_program(), params(2));
        sys.enable_tracing(64);
        let timeout = sys.run(600).expect_err("the spin never ends");
        let pm = &timeout.post_mortem;
        assert_eq!(pm.transitions.len(), 2 * 64, "both rings are full");
        assert!(pm.evicted > 0, "the heartbeat overflowed the rings");

        let doc = sys.trace_json().expect("tracing enabled");
        assert_eq!(doc.get("evictedTransitions").and_then(Json::as_int), Some(pm.evicted as i64));
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        let phase =
            |ph| events.iter().filter(move |e| e.get("ph").and_then(Json::as_str) == Some(ph));
        let int = |e: &Json, k: &str| e.get(k).and_then(Json::as_int).expect("integer field");
        let name = |e: &Json| e.get("name").and_then(Json::as_str).expect("name").to_owned();
        // Both clusters register the same units, so a span's (pid, tid)
        // is index `pid * units + tid` of the merged post-mortem table.
        let units = pm.unit_names.len() as i64 / 2;
        let mut spans: Vec<_> = phase("X")
            .map(|e| (int(e, "pid") * units + int(e, "tid"), int(e, "ts"), name(e)))
            .collect();
        let mut window: Vec<_> = pm
            .transitions
            .iter()
            .filter(|t| t.to != StallCause::Idle)
            .map(|t| (t.unit as i64, t.cycle as i64, t.to.label().to_owned()))
            .collect();
        spans.sort();
        window.sort();
        assert_eq!(spans, window, "the trace's spans are exactly the post-mortem window");
        let death = phase("i").find(|e| name(e).contains("timeout")).expect("timeout marked");
        assert_eq!(int(death, "ts"), pm.at as i64);
    }

    /// The system path is the longest single worker ROI of any cluster
    /// — not same-index harts of all clusters summed — so it fits
    /// inside the run it explains.
    #[test]
    fn system_critical_path_is_one_worker_and_fits_the_run() {
        // Worker `h` spins `8 * h` iterations inside its ROI.
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        a.slli(R::T1, R::T0, 3);
        a.roi_begin();
        let spin = a.bind_label();
        a.addi(R::T1, R::T1, -1);
        a.bge(R::T1, R::ZERO, spin);
        a.roi_end();
        a.halt();
        let summary = System::new(a.finish().unwrap(), params(2)).run(100_000).unwrap();
        let path = summary.critical_path();
        let longest = summary
            .clusters
            .iter()
            .flat_map(|c| &c.attr.workers)
            .map(CcAttribution::roi_cycles)
            .max()
            .expect("workers");
        assert!(longest > 0, "both clusters' workers open an ROI");
        assert_eq!(path.length, longest);
        assert!(path.length <= summary.cycles, "a path is never longer than the run");
        assert_eq!(path.compute + path.idle + path.blocked(), path.length, "exact partition");
    }

    #[test]
    fn deterministic_runs() {
        let build = || dma_pull_program(64, ClusterParams::default().n_workers as u32);
        let c1 = System::new(build(), params(4)).run(100_000).unwrap().cycles;
        let c2 = System::new(build(), params(4)).run(100_000).unwrap().cycles;
        assert_eq!(c1, c2);
    }
}
