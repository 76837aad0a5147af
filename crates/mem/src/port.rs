//! Request/response ports between masters and memories.
//!
//! A [`MemPort`] models one 64-bit master port: the master may place one
//! request per cycle (if the request wire is free), the memory grants it
//! during its own tick (possibly later, under bank contention) and
//! delivers the response with at least one cycle of latency. Responses
//! arrive in request order per port, as in the Snitch TCDM interconnect.

use std::collections::VecDeque;

/// The operation carried by a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemOp {
    /// 64-bit read of the aligned word containing the address.
    Read,
    /// Strobed write (bit *i* of `strb` enables byte lane *i*).
    Write { data: u64, strb: u8 },
}

/// One memory request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemReq {
    /// Byte address; data is always the aligned 64-bit word around it.
    pub addr: u32,
    /// Read or strobed write.
    pub op: MemOp,
}

impl MemReq {
    /// Convenience constructor for a read.
    #[must_use]
    pub fn read(addr: u32) -> Self {
        Self { addr, op: MemOp::Read }
    }

    /// Convenience constructor for a full-word write.
    #[must_use]
    pub fn write(addr: u32, data: u64) -> Self {
        Self { addr, op: MemOp::Write { data, strb: 0xFF } }
    }

    /// Convenience constructor for a strobed write.
    #[must_use]
    pub fn write_strb(addr: u32, data: u64, strb: u8) -> Self {
        Self { addr, op: MemOp::Write { data, strb } }
    }

    /// Whether this is a read.
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self.op, MemOp::Read)
    }
}

/// One read response (writes are acknowledged implicitly).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemRsp {
    /// The full aligned 64-bit word.
    pub data: u64,
}

/// A master-side memory port with single-request occupancy and an
/// in-order response queue.
#[derive(Clone, Debug, Default)]
pub struct MemPort {
    pending: Option<MemReq>,
    rsps: VecDeque<(u64, MemRsp)>,
    /// Total requests accepted by the memory.
    pub granted_reads: u64,
    /// Total writes accepted by the memory.
    pub granted_writes: u64,
    /// Cycles a pending request waited before being granted.
    pub wait_cycles: u64,
}

impl MemPort {
    /// Creates an idle port.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the master can place a new request this cycle.
    #[must_use]
    pub fn can_send(&self) -> bool {
        self.pending.is_none()
    }

    /// Places a request on the port.
    ///
    /// # Panics
    /// Panics if the port is already occupied (check [`Self::can_send`]).
    pub fn send(&mut self, req: MemReq) {
        assert!(self.pending.is_none(), "port already has a pending request"); // gate-allow: protocol invariant: one request in flight per port
        self.pending = Some(req);
    }

    /// The request currently waiting for a grant, if any (memory side).
    #[must_use]
    pub fn pending(&self) -> Option<&MemReq> {
        self.pending.as_ref()
    }

    /// Memory side: consumes the pending request after granting it.
    pub fn take_pending(&mut self) -> Option<MemReq> {
        let req = self.pending.take();
        if let Some(r) = &req {
            if r.is_read() {
                self.granted_reads += 1;
            } else {
                self.granted_writes += 1;
            }
        }
        req
    }

    /// Memory side: records one cycle of arbitration back-pressure.
    pub fn note_wait(&mut self) {
        self.wait_cycles += 1;
    }

    /// Memory side: enqueues a response that becomes visible to the
    /// master at `ready_cycle` — or once the responses queued before it
    /// are, if that is later: a port delivers in request order, so a
    /// fast answer behind a slow one (a TCDM or faulted access issued
    /// after a main-memory read) waits its turn.
    pub fn push_rsp(&mut self, ready_cycle: u64, rsp: MemRsp) {
        let ready = self.rsps.back().map_or(ready_cycle, |&(t, _)| t.max(ready_cycle));
        self.rsps.push_back((ready, rsp));
    }

    /// Master side: pops the next response if it is ready at `now`.
    pub fn take_rsp(&mut self, now: u64) -> Option<MemRsp> {
        match self.rsps.front() {
            Some(&(ready, rsp)) if ready <= now => {
                self.rsps.pop_front();
                Some(rsp)
            }
            _ => None,
        }
    }

    /// Number of responses queued (in flight).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.rsps.len() + usize::from(self.pending.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_occupancy() {
        let mut p = MemPort::new();
        assert!(p.can_send());
        p.send(MemReq::read(0x10));
        assert!(!p.can_send());
        assert_eq!(p.take_pending(), Some(MemReq::read(0x10)));
        assert!(p.can_send());
        assert_eq!(p.granted_reads, 1);
    }

    #[test]
    fn responses_respect_ready_cycle() {
        let mut p = MemPort::new();
        p.push_rsp(5, MemRsp { data: 1 });
        p.push_rsp(6, MemRsp { data: 2 });
        assert_eq!(p.take_rsp(4), None);
        assert_eq!(p.take_rsp(5), Some(MemRsp { data: 1 }));
        assert_eq!(p.take_rsp(5), None);
        assert_eq!(p.take_rsp(7), Some(MemRsp { data: 2 }));
    }

    #[test]
    #[should_panic(expected = "pending")]
    fn double_send_panics() {
        let mut p = MemPort::new();
        p.send(MemReq::read(0));
        p.send(MemReq::read(8));
    }

    #[test]
    fn write_helpers() {
        let w = MemReq::write_strb(0x8, 0xFF00, 0x02);
        assert!(!w.is_read());
        match w.op {
            MemOp::Write { data, strb } => {
                assert_eq!(data, 0xFF00);
                assert_eq!(strb, 0x02);
            }
            MemOp::Read => panic!("expected write"),
        }
    }
}
