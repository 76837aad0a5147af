//! The shared CC memory port.
//!
//! Following §II-C, each core complex exposes two ports to the memory
//! system: the ISSR keeps an exclusive port, while the integer core's
//! LSU, the FPU's load/store path and the plain SSR are *combined* onto
//! the other with round-robin arbitration. This lets the core slip its
//! occasional requests between SSR stream beats without blocking it,
//! and keeps legacy (non-streamer) code at full speed.

use issr_core::gate_check;
use issr_mem::port::{MemPort, MemRsp};
use std::collections::VecDeque;

/// Identifies the virtual master of a forwarded request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Master {
    CoreLsu,
    FpuLsu,
    Ssr,
}

const MASTERS: [Master; 3] = [Master::CoreLsu, Master::FpuLsu, Master::Ssr];

/// Three virtual ports multiplexed onto one physical port.
#[derive(Debug, Default)]
pub struct SharedPort {
    /// Integer-core LSU slice.
    pub core_lsu: MemPort,
    /// FPU load/store slice.
    pub fpu_lsu: MemPort,
    /// SSR lane slice.
    pub ssr: MemPort,
    /// Masters of the reads in flight on the physical port, oldest
    /// first.
    tags: VecDeque<Master>,
    rr: usize,
}

impl SharedPort {
    /// Creates an idle mux.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Delivers responses that arrived on the physical port back to the
    /// owning virtual port. Call at the start of each cycle. With no
    /// read in flight there is no response to deliver.
    pub fn relay_responses(&mut self, now: u64, phys: &mut MemPort) {
        if self.tags.is_empty() {
            if cfg!(test) {
                gate_check::assert_no_op("relay", (self, phys), |u| u.0.relay_in_flight(now, u.1));
            }
            return;
        }
        self.relay_in_flight(now, phys);
    }

    /// The relay, behind the nothing-in-flight gate.
    fn relay_in_flight(&mut self, now: u64, phys: &mut MemPort) {
        while let Some(rsp) = phys.take_rsp(now) {
            let master = self.tags.pop_front().expect("response without forwarded request");
            let port = self.port_of(master);
            port.push_rsp(now, MemRsp { data: rsp.data });
        }
    }

    /// Forwards at most one pending virtual request to the physical port,
    /// round-robin. Call after the masters have ticked. With no master
    /// requesting there is nothing to forward and the pointer stays.
    pub fn forward_requests(&mut self, phys: &mut MemPort) {
        if self.core_lsu.can_send() && self.fpu_lsu.can_send() && self.ssr.can_send() {
            if cfg!(test) {
                gate_check::assert_no_op("forward", (self, phys), |u| u.0.forward_pending(u.1));
            }
            return;
        }
        self.forward_pending(phys);
    }

    /// The arbitration, behind the no-request gate.
    fn forward_pending(&mut self, phys: &mut MemPort) {
        if !phys.can_send() {
            return;
        }
        let mut i = self.rr;
        for _ in 0..MASTERS.len() {
            let master = MASTERS[i];
            let next = if i + 1 == MASTERS.len() { 0 } else { i + 1 };
            if let Some(req) = self.port_of(master).take_pending() {
                // Only reads produce responses to route back.
                if req.is_read() {
                    self.tags.push_back(master);
                }
                phys.send(req);
                self.rr = next;
                return;
            }
            i = next;
        }
    }

    /// Whether no request or response is in flight anywhere in the mux.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.tags.is_empty()
            && self.core_lsu.can_send()
            && self.fpu_lsu.can_send()
            && self.ssr.can_send()
            && self.core_lsu.in_flight() == 0
            && self.fpu_lsu.in_flight() == 0
            && self.ssr.in_flight() == 0
    }

    fn port_of(&mut self, master: Master) -> &mut MemPort {
        match master {
            Master::CoreLsu => &mut self.core_lsu,
            Master::FpuLsu => &mut self.fpu_lsu,
            Master::Ssr => &mut self.ssr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_mem::port::MemReq;
    use issr_mem::tcdm::Tcdm;

    #[test]
    fn responses_route_to_their_master() {
        let mut tcdm = Tcdm::ideal(0, 0x100);
        tcdm.array_mut().store_u64(0x10, 1);
        tcdm.array_mut().store_u64(0x20, 2);
        let mut mux = SharedPort::new();
        let mut phys = MemPort::new();
        mux.core_lsu.send(MemReq::read(0x10));
        mux.ssr.send(MemReq::read(0x20));
        // Cycle 0: forward one (round-robin starts at core LSU).
        mux.forward_requests(&mut phys);
        tcdm.tick(0, &mut [&mut phys], &[]);
        // Cycle 1: relay, forward the second.
        mux.relay_responses(1, &mut phys);
        mux.forward_requests(&mut phys);
        tcdm.tick(1, &mut [&mut phys], &[]);
        mux.relay_responses(2, &mut phys);
        assert_eq!(mux.core_lsu.take_rsp(1).unwrap().data, 1);
        assert_eq!(mux.ssr.take_rsp(2).unwrap().data, 2);
        assert!(mux.is_idle());
    }

    #[test]
    fn round_robin_alternates_between_contenders() {
        let mut mux = SharedPort::new();
        let mut phys = MemPort::new();
        let mut grants = Vec::new();
        for cycle in 0..6 {
            if mux.core_lsu.can_send() {
                mux.core_lsu.send(MemReq::read(0x10));
            }
            if mux.ssr.can_send() {
                mux.ssr.send(MemReq::read(0x20));
            }
            mux.forward_requests(&mut phys);
            // Drain the physical port and note who won by address.
            if let Some(req) = phys.take_pending() {
                grants.push(req.addr);
                mux.tags.pop_back(); // test shortcut: no responses needed
            }
            let _ = cycle;
        }
        // Both masters make progress, interleaved.
        let lsu_grants = grants.iter().filter(|&&a| a == 0x10).count();
        let ssr_grants = grants.iter().filter(|&&a| a == 0x20).count();
        assert_eq!(lsu_grants, 3);
        assert_eq!(ssr_grants, 3);
    }
}
