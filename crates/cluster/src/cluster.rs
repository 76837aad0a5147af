//! The cluster model and its run harness.

use issr_core::lane::{LaneKind, LaneStats};
use issr_core::spacc::SpAccStats;
use issr_core::HwCaps;
use issr_isa::asm::Program;
use issr_mem::dma::{Dma, DmaStats};
use issr_mem::icache::{ICacheParams, L0Buffer, L1ICache};
use issr_mem::main_mem::MainMemory;
use issr_mem::map::{region_of, Region, MAIN_BASE, MAIN_SIZE, TCDM_BANKS, TCDM_BASE, TCDM_SIZE};
use issr_mem::port::{MemPort, MemRsp};
use issr_mem::tcdm::{Tcdm, TcdmStats};
use issr_snitch::attr::CcAttribution;
use issr_snitch::cc::{CoreComplex, SimTimeout};
use issr_snitch::core::Trap;
use issr_snitch::metrics::Metrics;
use issr_snitch::params::CcParams;
use issr_trace::timeline::DEFAULT_TIMELINE_CAP;
use issr_trace::{host, CriticalPath, CycleBreakdown, PostMortem, StatMerge, Timeline};

/// Cluster configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterParams {
    /// Worker core complexes (the paper's cluster has 8 in two hives).
    pub n_workers: usize,
    /// Every worker's core complex, streamer included
    /// ([`CcParams::sssr`] for the cluster SpMSpV/SpGEMM kernels). The
    /// DMCC shares its latencies but gets a single plain SSR lane.
    pub cc: CcParams,
    /// Model instruction caches (L0 + per-hive shared L1); when false,
    /// instruction fetch is ideal.
    pub icache: bool,
}

impl Default for ClusterParams {
    fn default() -> Self {
        Self { n_workers: 8, cc: CcParams::default(), icache: true }
    }
}

/// ROI stall-cause breakdowns for a whole cluster: every core complex
/// plus the DMA engine. The DMA table is sampled once per *cluster*
/// cycle (the engine has no ROI), so it totals to the cluster's elapsed
/// cycles, while each core's tables total to that core's ROI cycles.
#[derive(Clone, Debug, Default)]
pub struct ClusterAttribution {
    /// Per-worker breakdowns.
    pub workers: Vec<CcAttribution>,
    /// The data-mover core's breakdown.
    pub dmcc: CcAttribution,
    /// The DMA engine's breakdown (totals to the cluster cycles).
    pub dma: CycleBreakdown,
}

impl ClusterAttribution {
    /// All worker breakdowns folded into one [`CcAttribution`] — the
    /// cluster-wide view the reports and JSON emitters print.
    #[must_use]
    pub fn merged_workers(&self) -> CcAttribution {
        issr_trace::merge::merge_all(self.workers.iter())
    }

    /// The cluster's critical path: the backward blame walk starts at
    /// the worker with the longest ROI (the one end-of-ROI waits on),
    /// then descends into its busiest lane. Falls back to the DMCC when
    /// no worker opened an ROI (pure data-movement runs).
    #[must_use]
    pub fn critical_path(&self) -> CriticalPath {
        longest_roi(&self.workers).unwrap_or(&self.dmcc).critical_path()
    }

    /// Labelled rows (workers, DMCC, DMA) for
    /// [`issr_trace::breakdown_table`], with `prefix` prepended.
    #[must_use]
    pub fn rows(&self, prefix: &str) -> Vec<(String, CycleBreakdown)> {
        let mut rows = Vec::new();
        for (i, w) in self.workers.iter().enumerate() {
            rows.extend(w.rows(&format!("{prefix}hart{i}/")));
        }
        rows.push((format!("{prefix}dmcc"), self.dmcc.hart));
        rows.push((format!("{prefix}dma"), self.dma));
        rows
    }
}

/// The core complex with the longest (non-empty) ROI — the one
/// end-of-ROI waits on, where a backward blame walk starts. Ties keep
/// the earlier one.
pub fn longest_roi<'a>(
    ccs: impl IntoIterator<Item = &'a CcAttribution>,
) -> Option<&'a CcAttribution> {
    let mut best: Option<&CcAttribution> = None;
    for cc in ccs {
        if cc.roi_cycles() > 0 && best.is_none_or(|b| cc.roi_cycles() > b.roi_cycles()) {
            best = Some(cc);
        }
    }
    best
}

impl StatMerge for ClusterAttribution {
    fn merge_from(&mut self, other: &Self) {
        if self.workers.len() < other.workers.len() {
            self.workers.resize(other.workers.len(), CcAttribution::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(other.workers.iter()) {
            mine.merge_from(theirs);
        }
        self.dmcc.merge_from(&other.dmcc);
        self.dma.merge_from(&other.dma);
    }
}

/// Result of a completed cluster run.
#[derive(Clone, Debug)]
pub struct ClusterSummary {
    /// Total cycles until the whole cluster went quiescent.
    pub cycles: u64,
    /// Per-worker metrics (ROI counters included).
    pub worker_metrics: Vec<Metrics>,
    /// DMCC metrics.
    pub dmcc_metrics: Metrics,
    /// Per-worker streamer lane statistics.
    pub lane_stats: Vec<Vec<LaneStats>>,
    /// Per-worker sparse-accumulator statistics (all zero without SpAcc
    /// hardware).
    pub spacc_stats: Vec<SpAccStats>,
    /// TCDM statistics (grants, conflicts).
    pub tcdm_stats: TcdmStats,
    /// DMA statistics.
    pub dma_stats: DmaStats,
    /// ROI stall-cause breakdowns (every core + the DMA engine).
    pub attr: ClusterAttribution,
    /// Decode/fetch traps that parked cores (workers and DMCC alike);
    /// empty on a clean run.
    pub traps: Vec<Trap>,
    /// Post-mortem assembled automatically when the run ended with
    /// latched traps (a clean, trap-free run carries `None`; a timeout
    /// carries its post-mortem on the [`SimTimeout`] instead).
    pub post_mortem: Option<PostMortem>,
}

impl ClusterSummary {
    /// Total multiply-accumulates retired by the workers (in their ROIs).
    #[must_use]
    pub fn total_fmadds(&self) -> u64 {
        self.worker_metrics.iter().map(|m| m.roi.fmadds).sum()
    }

    /// Cluster-aggregate FPU utilization: retired MACs over
    /// `cycles × workers` — the figure compared against CPUs/GPUs in §V.
    #[must_use]
    pub fn cluster_utilization(&self) -> f64 {
        if self.cycles == 0 || self.worker_metrics.is_empty() {
            return 0.0;
        }
        self.total_fmadds() as f64 / (self.cycles as f64 * self.worker_metrics.len() as f64)
    }

    /// Peak per-worker FPU utilization within worker ROIs.
    #[must_use]
    pub fn peak_worker_utilization(&self) -> f64 {
        self.worker_metrics.iter().map(Metrics::fpu_utilization).fold(0.0, f64::max)
    }
}

/// Activity snapshot of one cluster tick. The system harness reads it
/// to attribute DMA/compute overlap across clusters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickActivity {
    /// Words the DMA engine moved across the main-memory interface
    /// this cycle (local TCDM→TCDM copies excluded).
    pub dma_words_moved: u64,
    /// Whether any worker was inside its region of interest.
    pub workers_in_roi: bool,
}

/// One cluster's armed [`Timeline`], sampled once per cycle from the
/// classifications the tick already latched — never from live machine
/// state, so recording cannot perturb timing.
#[derive(Clone, Debug)]
struct Recorder {
    timeline: Timeline,
    /// The Chrome-trace process of the units (the cluster's index in
    /// its system).
    pid: u32,
    /// Whether the worker lanes and the FIFO/DMA counters are
    /// registered too ([`Cluster::enable_tracing`]).
    lanes: bool,
    /// Latched traps already marked: formatting a mark is only worth
    /// it on the cycle a new trap appears.
    traps_marked: usize,
}

/// The eight-worker Snitch cluster plus DMCC.
#[derive(Debug)]
pub struct Cluster {
    /// Worker core complexes (harts `0..n_workers`).
    pub workers: Vec<CoreComplex>,
    /// The data-mover core (hart `n_workers`), no FPU work, drives the DMA.
    pub dmcc: CoreComplex,
    /// Banked scratchpad.
    pub tcdm: Tcdm,
    /// Main memory behind the crossbar. A standalone cluster owns a
    /// private one; clusters built with [`Cluster::new_for_system`]
    /// keep an empty stub here and are ticked against the shared memory
    /// via [`Cluster::tick_shared`].
    pub main: MainMemory,
    /// The 512-bit DMA engine.
    pub dma: Dma,
    /// Every memory port, flat: worker 0's, worker 1's, …, the DMCC's.
    /// A port's index here is its slot in the interconnect's routing
    /// masks and its position in the TCDM's round-robin.
    ports: Vec<MemPort>,
    /// `ports[port_base[i]..port_base[i + 1]]` belong to hart `i`.
    port_base: Vec<usize>,
    l1: Vec<L1ICache>,
    dma_claimed: Vec<bool>,
    dma_attr: CycleBreakdown,
    /// Persistent scratch for the DMA fairness yield: banks contested by
    /// core ports this cycle. Only (re)filled while the engine is busy —
    /// [`Dma::tick`] never reads it when idle.
    contested: Vec<bool>,
    /// The cause timeline; [`Cluster::run`] arms a default one so every
    /// timeout dump carries recent history.
    recorder: Option<Recorder>,
    /// Whether the ambient host profiler was installed when the run
    /// began ([`Cluster::profile_host`]): the per-phase hooks test this
    /// latch, not the thread-local.
    profiled: bool,
    now: u64,
}

impl Cluster {
    /// Builds the cluster; every core runs `program` and dispatches on
    /// `mhartid` (workers `0..n_workers`, DMCC = `n_workers`).
    ///
    /// # Panics
    /// Panics if the cores expose more than 64 memory ports in total
    /// (32 or more two-lane workers).
    #[must_use]
    pub fn new(program: Program, params: ClusterParams) -> Self {
        Self::with_main_size(program, params, MAIN_SIZE)
    }

    /// The one constructor: `main_size` bytes of private main memory
    /// (zero for the stub of a system-embedded cluster).
    fn with_main_size(program: Program, params: ClusterParams, main_size: u32) -> Self {
        let icache_params = ICacheParams::default();
        let mut workers = Vec::with_capacity(params.n_workers);
        for hart in 0..params.n_workers {
            let mut cc = CoreComplex::new(hart as u32, program.clone(), params.cc);
            if params.icache {
                cc.set_l0(L0Buffer::new(icache_params));
            }
            workers.push(cc);
        }
        // The DMCC has no FPU subsystem worth modelling and a single
        // (SSR-less would be ideal; one plain lane keeps the port math
        // uniform) memory port.
        let streamer = HwCaps { lanes: &[LaneKind::Ssr], ..HwCaps::PAPER };
        let dmcc =
            CoreComplex::new(params.n_workers as u32, program, CcParams { streamer, ..params.cc });
        let mut port_base = vec![0];
        for cc in workers.iter().chain(std::iter::once(&dmcc)) {
            port_base.push(port_base[port_base.len() - 1] + cc.n_ports());
        }
        // `tick_interconnect` reports its main-memory routing to
        // `tick_mem` as one bit per flat port slot in a `u64`.
        let n_ports = port_base[port_base.len() - 1];
        let ports = (0..n_ports).map(|_| MemPort::new()).collect();
        assert!(
            // gate-allow: host-API construction precondition
            n_ports <= 64,
            "cluster has {n_ports} memory ports ({} workers + DMCC); the interconnect routes at \
             most 64",
            params.n_workers
        );
        // Two hives of four workers share an L1 each; the DMCC fetches
        // ideally (control code only).
        let n_hives = params.n_workers.div_ceil(4).max(1);
        let l1 = (0..n_hives).map(|_| L1ICache::new(icache_params)).collect();
        Self {
            workers,
            dmcc,
            tcdm: Tcdm::banked(TCDM_BASE, TCDM_SIZE, TCDM_BANKS),
            main: MainMemory::new(MAIN_BASE, main_size),
            dma: Dma::new(TCDM_BASE, TCDM_SIZE),
            ports,
            port_base,
            l1,
            dma_claimed: vec![false; TCDM_BANKS],
            dma_attr: CycleBreakdown::default(),
            contested: vec![false; TCDM_BANKS],
            recorder: None,
            profiled: false,
            now: 0,
        }
    }

    /// [`Cluster::new`] for a cluster embedded in a multi-cluster
    /// system: the private main memory is an empty stub (the system
    /// owns the shared one and drives [`Cluster::tick_shared`]).
    #[must_use]
    pub fn new_for_system(program: Program, params: ClusterParams) -> Self {
        Self::with_main_size(program, params, 0)
    }

    /// Whether every core halted and all queues drained.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.workers.iter().all(CoreComplex::quiescent) && self.dmcc.quiescent() && !self.dma.busy()
    }

    fn release_barrier_if_all_arrived(&mut self) {
        // Halted cores count as arrived: the hardware barrier masks out
        // inactive harts, so a worker whose stripe is empty (or the
        // DMCC sitting out a resident workload) cannot deadlock the
        // cores that still synchronize.
        let arrived = |cc: &CoreComplex| cc.core.at_barrier() || cc.core.halted();
        let any = self.workers.iter().any(|cc| cc.core.at_barrier()) || self.dmcc.core.at_barrier();
        let all = self.workers.iter().all(arrived) && arrived(&self.dmcc);
        if any && all {
            for cc in &mut self.workers {
                cc.core.release_barrier();
            }
            self.dmcc.core.release_barrier();
        }
    }

    /// Latches whether the ambient host profiler is installed, for the
    /// run that follows: [`Cluster::run`] and the system harness call
    /// this once, so no tick looks the thread-local up.
    pub fn profile_host(&mut self, installed: bool) {
        self.profiled = installed;
    }

    /// Advances the whole cluster one cycle against its private main
    /// memory, resetting the memory's per-cycle DMA bandwidth budget.
    pub fn tick(&mut self) {
        if self.profiled {
            host::cycle();
        }
        self.main.begin_dma_cycle();
        self.tick_phases(None);
    }

    /// Advances the whole cluster one cycle against an external
    /// (possibly shared) main memory. The caller owns the memory's
    /// per-cycle DMA budget: reset it once per system cycle with
    /// [`MainMemory::begin_dma_cycle`] before ticking the clusters that
    /// share it — their tick order is the bandwidth grant order.
    pub fn tick_shared(&mut self, main: &mut MainMemory) -> TickActivity {
        self.tick_phases(Some(main))
    }

    /// The tick is three phases: compute and memory touch only
    /// cluster-local state, every access to main memory — `shared`, or
    /// the cluster's private one — is confined to the interconnect
    /// phase between them.
    fn tick_phases(&mut self, shared: Option<&mut MainMemory>) -> TickActivity {
        let workers_in_roi = self.tick_compute();
        let (dma_words_moved, main_routed) = self.tick_interconnect(shared);
        self.tick_mem(main_routed);
        TickActivity { dma_words_moved, workers_in_roi }
    }

    /// Phase 1 — cluster-local compute: barrier release, worker CCs,
    /// DMCC. Provably idle units (per [`CoreComplex::is_idle`]) take the
    /// cheap bookkeeping path instead of a full tick. Returns whether
    /// any worker was inside its region of interest.
    fn tick_compute(&mut self) -> bool {
        let now = self.now;
        // Host self-profiler (opt-in, read-only): bill each phase's
        // wall-clock to its unit class; `host_t = None` means zero
        // further cost.
        let mut host_t = host::phase_start(self.profiled);
        self.release_barrier_if_all_arrived();
        let n_workers = self.workers.len();
        let mut idle_workers = 0u64;
        let mut in_roi = false;
        for (i, cc) in self.workers.iter_mut().enumerate() {
            if cc.is_idle() {
                idle_workers += 1;
                cc.tick_idle();
            } else {
                let ports = &mut self.ports[self.port_base[i]..self.port_base[i + 1]];
                cc.tick(now, ports, None, Some(&mut self.l1[i / 4]));
            }
            in_roi |= cc.metrics.roi_active;
        }
        host::phase(&mut host_t, "workers", n_workers as u64, idle_workers);
        let idle_dmcc = self.dmcc.is_idle();
        if idle_dmcc {
            self.dmcc.tick_idle();
        } else {
            let ports = &mut self.ports[self.port_base[n_workers]..];
            self.dmcc.tick(now, ports, Some(&mut self.dma), None);
        }
        host::phase(&mut host_t, "dmcc", 1, u64::from(idle_dmcc));
        in_roi
    }

    /// Phase 2 — the only phase that touches main memory (`shared`, or
    /// the private one when `None`): the DMA engine moves a beat and
    /// claims banks, then narrow main-region requests are served.
    /// Returns the words the DMA moved across the main-memory interface
    /// and the mask of flat port slots routed to main memory.
    fn tick_interconnect(&mut self, shared: Option<&mut MainMemory>) -> (u64, u64) {
        let main = match shared {
            Some(main) => main,
            None => &mut self.main,
        };
        let now = self.now;
        let mut host_t = host::phase_start(self.profiled);
        // One pass over the ports classifies every pending request:
        // the banks core ports contest (the DMA yields them every other
        // cycle — fair interconnect), the slots that route to main
        // memory, the slots no mapped region contains. The routing is
        // reported to the TCDM phase, which must exclude exactly the
        // slots routed away — served or not — so its round-robin port
        // positions match a slice collected without them.
        self.dma_claimed.fill(false);
        let dma_busy = self.dma.busy();
        if dma_busy {
            // Only a busy engine reads the contested map; tolerate
            // stale contents otherwise.
            self.contested.fill(false);
        }
        let (mut to_main, mut unmapped, mut any_pending) = (0u64, 0u64, false);
        for (slot, port) in self.ports.iter().enumerate() {
            let Some(req) = port.pending() else { continue };
            any_pending = true;
            match region_of(req.addr) {
                Region::Tcdm => {
                    if dma_busy {
                        self.contested[self.tcdm.bank_of(req.addr)] = true;
                    }
                }
                Region::Main if main.array().contains(req.addr) => to_main |= 1 << slot,
                Region::Main | Region::Periph | Region::Unmapped => unmapped |= 1 << slot,
            }
        }
        let yield_to_cores = now % 2 == 0;
        // Attribute only words that crossed the main-memory interface
        // (TCDM→TCDM local copies draw no shared bandwidth and say
        // nothing about main-memory double buffering).
        let moved_before = main.stats.wide_beats;
        self.dma.tick(
            self.tcdm.array_mut(),
            main,
            &mut self.dma_claimed,
            &self.contested,
            yield_to_cores,
        );
        let dma_words_moved = main.stats.wide_beats - moved_before;
        self.dma_attr.record(self.dma.last_cause());
        host::phase(&mut host_t, "dma", 1, u64::from(!dma_busy));
        // The memories are idle when no port carries a request and the
        // DMA claimed no bank this cycle.
        let idle_mem = !any_pending && !self.dma_claimed.iter().any(|&c| c);
        // Serve the main-region requests, in slot order.
        let mut serving = to_main;
        while serving != 0 {
            let slot = serving.trailing_zeros() as usize;
            serving &= serving - 1;
            let fault = main.serve(now, &mut self.ports[slot]);
            debug_assert!(fault.is_none(), "routing admits only addresses main memory contains");
        }
        // A transfer the DMA engine aborted parks the DMCC that queued
        // it; a request no mapped region contains is answered right
        // here (a zero read, a dropped write) and parks the core
        // complex that owns the port — both on an access fault.
        if let Some(addr) = self.dma.take_fault() {
            self.dmcc.deliver_access_fault(addr);
        }
        let mut faulting = unmapped;
        while faulting != 0 {
            let slot = faulting.trailing_zeros() as usize;
            faulting &= faulting - 1;
            let port = &mut self.ports[slot];
            let req = port.take_pending().expect("classified pending");
            if req.is_read() {
                port.push_rsp(now + 1, MemRsp { data: 0 });
            }
            let owner = self.port_base.partition_point(|&base| base <= slot) - 1;
            let n_workers = self.workers.len();
            let cc = if owner == n_workers { &mut self.dmcc } else { &mut self.workers[owner] };
            cc.deliver_access_fault(req.addr);
        }
        // The "mem" class's one unit-tick per cycle is recorded here;
        // tick_mem bills its wall-clock to the class with zero units.
        host::phase(&mut host_t, "mem", 1, u64::from(idle_mem));
        (dma_words_moved, to_main | unmapped)
    }

    /// Phase 3 — cluster-local memory: TCDM bank arbitration over the
    /// port slots not in `main_routed`, then the cycle counter advances.
    fn tick_mem(&mut self, main_routed: u64) {
        let now = self.now;
        let mut host_t = host::phase_start(self.profiled);
        let unrouted =
            self.tcdm.tick_skipping(now, &mut self.ports, main_routed, &self.dma_claimed);
        debug_assert!(unrouted.is_empty(), "the TCDM array covers its whole region");
        host::phase(&mut host_t, "mem", 0, 0);
        self.sample_timeline(now);
        self.now += 1;
    }

    /// Hart `i`'s name in the timeline and the post-mortem.
    fn hart_name(&self, i: usize) -> String {
        if i == self.workers.len() {
            "dmcc".to_owned()
        } else {
            format!("hart {i}")
        }
    }

    /// The one registration routine: every hart (each worker followed,
    /// with `lanes`, by its stream lanes and their data-FIFO occupancy
    /// counters), then the DMA engine (with `lanes`, its
    /// outstanding-words counter), under process `pid`.
    fn arm(&mut self, cap: usize, pid: u32, lanes: bool) {
        let mut tl = Timeline::new(cap);
        for (i, cc) in self.workers.iter().enumerate() {
            tl.add_unit(pid, self.hart_name(i));
            for l in 0..if lanes { cc.streamer.n_lanes() } else { 0 } {
                tl.add_unit(pid, format!("hart {i} ft{l}"));
                tl.add_counter(pid, format!("hart {i} ft{l} fifo"));
            }
        }
        tl.add_unit(pid, self.hart_name(self.workers.len()));
        tl.add_unit(pid, "dma");
        if lanes {
            tl.add_counter(pid, "dma outstanding words");
        }
        self.recorder = Some(Recorder { timeline: tl, pid, lanes, traps_marked: 0 });
    }

    /// Feeds the cycle that just completed into the timeline, if armed —
    /// the one per-cycle walk, over the units and counters in the order
    /// [`Cluster::arm`] registered them. Reads only latched
    /// classifications, so recording is invisible to the simulated
    /// machine.
    fn sample_timeline(&mut self, now: u64) {
        let Some(rec) = self.recorder.as_mut() else { return };
        let tl = &mut rec.timeline;
        let (mut unit, mut counter, mut trapped) = (0, 0, 0);
        for (i, cc) in self.workers.iter().chain(std::iter::once(&self.dmcc)).enumerate() {
            let causes = cc.last_causes();
            tl.sample(unit, now, causes.hart);
            unit += 1;
            trapped += usize::from(cc.core.trap().is_some());
            if rec.lanes && i < self.workers.len() {
                for (l, &cause) in causes.streamer.lanes.iter().enumerate() {
                    tl.sample(unit, now, cause);
                    tl.sample_counter(counter, now, cc.streamer.lane(l).fifo_len() as u64);
                    unit += 1;
                    counter += 1;
                }
            }
        }
        tl.sample(unit, now, self.dma.last_cause());
        if rec.lanes {
            tl.sample_counter(counter, now, self.dma.outstanding_words());
        }
        // Traps latch once and stay, so a changed count means a new
        // one; `mark` dedups the ones already marked.
        if trapped != rec.traps_marked {
            rec.traps_marked = trapped;
            for (i, cc) in self.workers.iter().chain(std::iter::once(&self.dmcc)).enumerate() {
                if let Some(trap) = cc.core.trap() {
                    tl.mark(rec.pid, format!("trap hart {i}: {trap}"), now);
                }
            }
        }
    }

    /// Arms tracing under Chrome-trace process `pid` (the cluster's
    /// index in its system): a timeline of the most recent `cap`
    /// transitions over every hart, worker lane and the DMA engine,
    /// with the FIFO and DMA counter tracks. Re-arming resets the ring.
    /// Recording changes no simulated bit and no cycle count.
    pub fn enable_tracing(&mut self, cap: usize, pid: u32) {
        self.arm(cap, pid, true);
    }

    /// Arms the default timeline — harts, DMCC and DMA engine, the
    /// most recent [`DEFAULT_TIMELINE_CAP`] transitions — unless one is
    /// armed already. [`Cluster::run`] and the system harness call this
    /// so any timeout dump carries recent history.
    pub fn arm_default_timeline(&mut self, pid: u32) {
        if self.recorder.is_none() {
            self.arm(DEFAULT_TIMELINE_CAP, pid, false);
        }
    }

    /// The armed timeline, if any.
    #[must_use]
    pub fn timeline(&self) -> Option<&Timeline> {
        self.recorder.as_ref().map(|r| &r.timeline)
    }

    /// Drops an instant mark (a timeout) on the armed timeline, if any,
    /// at the current cycle.
    pub fn mark(&mut self, name: String) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.timeline.mark(rec.pid, name, self.now);
        }
    }

    /// Assembles the post-mortem for the cluster's current state: every
    /// hart (workers, then the DMCC) that has not gone quiescent, with
    /// its PC, dominant lifetime stall cause and last-polled address,
    /// and whatever the timeline holds.
    #[must_use]
    pub fn post_mortem(&self, cluster: usize) -> PostMortem {
        let harts = self.workers.iter().chain(std::iter::once(&self.dmcc));
        let stuck = harts
            .enumerate()
            .filter(|(_, cc)| !cc.quiescent())
            .map(|(i, cc)| cc.stuck_unit(cluster, &self.hart_name(i)))
            .collect();
        PostMortem::assemble(self.now, stuck, self.timeline())
    }

    /// Whether any hart (worker or DMCC) has latched a trap.
    #[must_use]
    pub fn trapped(&self) -> bool {
        self.workers.iter().chain(std::iter::once(&self.dmcc)).any(|cc| cc.core.trap().is_some())
    }

    /// Runs to quiescence.
    ///
    /// # Errors
    /// Returns [`SimTimeout`] if the cluster does not finish in
    /// `max_cycles` (deadlock or bug).
    pub fn run(&mut self, max_cycles: u64) -> Result<ClusterSummary, SimTimeout> {
        self.run_until(max_cycles, |_| false)
    }

    /// Runs to quiescence, or until `stop` holds after a cycle (a
    /// harness whose harts wait on each other ends at the first trap,
    /// [`Cluster::trapped`]).
    ///
    /// # Errors
    /// As [`Cluster::run`].
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        stop: impl Fn(&Self) -> bool,
    ) -> Result<ClusterSummary, SimTimeout> {
        self.arm_default_timeline(0);
        self.profile_host(host::is_enabled());
        let deadline = self.now.saturating_add(max_cycles);
        while self.now < deadline {
            self.tick();
            if self.quiescent() || stop(self) {
                return Ok(self.summary());
            }
        }
        self.mark(format!("sim timeout after {max_cycles} cycles"));
        Err(SimTimeout::from_post_mortem(max_cycles, self.post_mortem(0)))
    }

    /// Snapshot of the run statistics.
    #[must_use]
    pub fn summary(&self) -> ClusterSummary {
        let mut summary = ClusterSummary {
            cycles: self.now,
            worker_metrics: self.workers.iter().map(|cc| cc.metrics).collect(),
            dmcc_metrics: self.dmcc.metrics,
            lane_stats: self.workers.iter().map(|cc| cc.streamer.stats()).collect(),
            spacc_stats: self.workers.iter().map(|cc| cc.streamer.spacc_stats()).collect(),
            tcdm_stats: self.tcdm.stats(),
            dma_stats: self.dma.stats(),
            attr: ClusterAttribution {
                workers: self.workers.iter().map(|cc| cc.attr.clone()).collect(),
                dmcc: self.dmcc.attr.clone(),
                dma: self.dma_attr,
            },
            traps: self
                .workers
                .iter()
                .chain(std::iter::once(&self.dmcc))
                .filter_map(|cc| cc.core.trap())
                .collect(),
            post_mortem: None,
        };
        if !summary.traps.is_empty() {
            summary.post_mortem = Some(self.post_mortem(0));
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_isa::asm::Assembler;
    use issr_isa::reg::IntReg as R;
    use issr_isa::Csr;

    /// Every core writes its hartid² to the 8-byte slot `base + 8 * hartid`.
    fn squares_to(base: u32) -> Program {
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        a.mul(R::T1, R::T0, R::T0);
        a.slli(R::T2, R::T0, 3);
        a.li_addr(R::T3, base);
        a.add(R::T2, R::T2, R::T3);
        a.sw(R::T1, R::T2, 0);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn harts_execute_independently() {
        let mut cluster = Cluster::new(squares_to(TCDM_BASE), ClusterParams::default());
        let summary = cluster.run(10_000).unwrap();
        for hart in 0..9u32 {
            assert_eq!(
                cluster.tcdm.array().load_u32(TCDM_BASE + hart * 8),
                hart * hart,
                "hart {hart}"
            );
        }
        assert!(summary.cycles < 200);
    }

    /// 31 two-lane workers + the DMCC fill 63 of the 64 routing-mask
    /// bits; main-memory requests on the highest slots still route.
    #[test]
    fn widest_cluster_routes_main_requests_on_every_port() {
        let params = ClusterParams { n_workers: 31, ..ClusterParams::default() };
        let mut cluster = Cluster::new(squares_to(MAIN_BASE), params);
        cluster.run(10_000).unwrap();
        for hart in 0..32u32 {
            assert_eq!(cluster.main.array().load_u32(MAIN_BASE + hart * 8), hart * hart);
        }
    }

    /// Each hive of four workers fetches through its own L1: from cold,
    /// the third hive of a 12-worker cluster misses in `l1[2]`, not in
    /// hive 1's cache.
    #[test]
    fn every_hive_fetches_through_its_own_l1() {
        let params = ClusterParams { n_workers: 12, ..ClusterParams::default() };
        let mut cluster = Cluster::new(squares_to(TCDM_BASE), params);
        cluster.run(10_000).unwrap();
        assert_eq!(cluster.l1.len(), 3);
        for (hive, l1) in cluster.l1.iter().enumerate() {
            assert!(l1.misses > 0, "hive {hive} never touched its L1");
        }
    }

    #[test]
    #[should_panic(expected = "65 memory ports")]
    fn one_worker_too_many_is_rejected_at_construction() {
        let params = ClusterParams { n_workers: 32, ..ClusterParams::default() };
        let _ = Cluster::new(squares_to(MAIN_BASE), params);
    }

    /// Resuming a finished cluster with an unbounded budget must not
    /// overflow the deadline.
    #[test]
    fn unbounded_budget_survives_a_resumed_run() {
        let mut a = Assembler::new();
        a.halt();
        let mut cluster = Cluster::new(a.finish().unwrap(), ClusterParams::default());
        cluster.run(u64::MAX).expect("first run halts");
        cluster.run(u64::MAX).expect("resumed run stays quiescent");
    }

    /// The hardware barrier holds early cores until the slowest arrives.
    #[test]
    fn barrier_synchronizes_all_cores() {
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        // Stagger arrival: hart h burns 20·h cycles first.
        a.li(R::T1, 20);
        a.mul(R::T1, R::T1, R::T0);
        let spin = a.bind_label();
        a.addi(R::T1, R::T1, -1);
        a.bgtz(R::T1, spin);
        a.csrr(R::ZERO, Csr::Barrier);
        // After the barrier, every core stamps the cycle counter.
        a.csrr(R::T2, Csr::MCycle);
        a.slli(R::T3, R::T0, 3);
        a.li_addr(R::T4, TCDM_BASE + 0x100);
        a.add(R::T3, R::T3, R::T4);
        a.sw(R::T2, R::T3, 0);
        a.halt();
        let mut cluster = Cluster::new(a.finish().unwrap(), ClusterParams::default());
        cluster.run(10_000).unwrap();
        let stamps: Vec<u32> =
            (0..9).map(|h| cluster.tcdm.array().load_u32(TCDM_BASE + 0x100 + h * 8)).collect();
        let min = *stamps.iter().min().unwrap();
        let max = *stamps.iter().max().unwrap();
        // All cores resumed within a couple of cycles of each other,
        // despite arrival skew of ~160 cycles.
        assert!(max - min <= 4, "stamps {stamps:?}");
    }

    /// DMCC copies data in via DMA; a worker consumes it after a flag.
    #[test]
    fn dma_flag_handshake() {
        let n = 64u32;
        let src = MAIN_BASE;
        let dst = TCDM_BASE + 0x1000;
        let flag = TCDM_BASE + 0x8;
        let out = TCDM_BASE + 0x10;
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        let worker = a.new_label();
        a.li(R::T1, 8);
        a.bne(R::T0, R::T1, worker);
        // DMCC: copy n words, poll completion, raise the flag.
        a.li_addr(R::A0, src);
        a.li_addr(R::A1, dst);
        a.dmsrc(R::A0, R::ZERO);
        a.dmdst(R::A1, R::ZERO);
        a.li(R::A2, i64::from(n) * 8);
        a.dmcpyi(R::A3, R::A2, 0);
        let poll = a.bind_label();
        a.dmstati(R::T2, 0);
        a.beqz(R::T2, poll);
        a.li(R::T3, 1);
        a.li_addr(R::T4, flag);
        a.sw(R::T3, R::T4, 0);
        a.halt();
        // Workers: hart 0 sums the data after the flag; others halt.
        a.bind(worker);
        let hart0 = a.new_label();
        a.beqz(R::T0, hart0);
        a.halt();
        a.bind(hart0);
        a.li_addr(R::T4, flag);
        let spin = a.bind_label();
        a.lw(R::T2, R::T4, 0);
        a.beqz(R::T2, spin);
        a.li_addr(R::A0, dst);
        a.li(R::T5, i64::from(n));
        a.li(R::T6, 0);
        let head = a.bind_label();
        a.lw(R::T2, R::A0, 0);
        a.addi(R::A0, R::A0, 8);
        a.add(R::T6, R::T6, R::T2);
        a.addi(R::T5, R::T5, -1);
        a.bnez(R::T5, head);
        a.li_addr(R::T4, out);
        a.sw(R::T6, R::T4, 0);
        a.halt();

        let mut cluster = Cluster::new(a.finish().unwrap(), ClusterParams::default());
        for i in 0..n {
            cluster.main.array_mut().store_u64(src + i * 8, u64::from(i));
        }
        cluster.run(50_000).unwrap();
        let expect: u32 = (0..n).sum();
        assert_eq!(cluster.tcdm.array().load_u32(out), expect);
        assert_eq!(cluster.summary().dma_stats.words_in, u64::from(n));
    }

    #[test]
    fn bank_conflicts_are_observed_under_contention() {
        // All workers hammer the same bank (same address).
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        let end = a.new_label();
        a.li(R::T1, 8);
        a.beq(R::T0, R::T1, end); // DMCC idles
        a.li_addr(R::A0, TCDM_BASE + 0x2000);
        a.li(R::T2, 64);
        let head = a.bind_label();
        a.lw(R::T3, R::A0, 0);
        a.addi(R::T2, R::T2, -1);
        a.bnez(R::T2, head);
        a.bind(end);
        a.halt();
        let mut cluster = Cluster::new(a.finish().unwrap(), ClusterParams::default());
        cluster.run(50_000).unwrap();
        assert!(
            cluster.summary().tcdm_stats.conflicts > 100,
            "expected conflicts, got {:?}",
            cluster.summary().tcdm_stats
        );
    }

    #[test]
    fn deterministic_runs() {
        let build = || {
            let mut a = Assembler::new();
            a.csrr(R::T0, Csr::MHartId);
            a.li(R::T1, 50);
            let head = a.bind_label();
            a.addi(R::T1, R::T1, -1);
            a.bnez(R::T1, head);
            a.halt();
            a.finish().unwrap()
        };
        let c1 = Cluster::new(build(), ClusterParams::default()).run(10_000).unwrap().cycles;
        let c2 = Cluster::new(build(), ClusterParams::default()).run(10_000).unwrap().cycles;
        assert_eq!(c1, c2);
    }
}
