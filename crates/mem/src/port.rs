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
    #[inline]
    pub fn read(addr: u32) -> Self {
        Self { addr, op: MemOp::Read }
    }

    /// Convenience constructor for a full-word write.
    #[must_use]
    #[inline]
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
    #[inline]
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

/// `req_word` bit: a request is pending (the word is zero otherwise).
const REQ_VALID: u64 = 1 << 63;
/// `req_word` bit: the pending request is a write.
const REQ_WRITE: u64 = 1 << 62;
/// `req_word` position of a write's byte strobe (the address is below).
const REQ_STRB_SHIFT: u32 = 32;

/// A master-side memory port with single-request occupancy and an
/// in-order response queue.
#[derive(Clone, Default)]
pub struct MemPort {
    /// The pending request, packed: valid and write bits, strobe,
    /// address — zero when the port is free. A request is handed on by
    /// value at every hop (master → shared port → physical port →
    /// memory, all within a cycle or two); packed, each hop stores one
    /// word and loads the same word. An `Option<MemReq>` is written
    /// field by field and copied with one 16-byte load, which no store
    /// buffer forwards: the profile showed that stall on every hop
    /// (`take_pending` 7 %, `SharedPort::forward_requests` 6 % of an
    /// ISSR cycle).
    req_word: u64,
    /// The pending request's write data (reads carry none).
    req_data: u64,
    /// `(ready_cycle, response)`, oldest first.
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
    #[inline]
    pub fn can_send(&self) -> bool {
        self.req_word == 0
    }

    /// Places a request on the port.
    ///
    /// # Panics
    /// Panics if the port is already occupied (check [`Self::can_send`]).
    #[inline]
    pub fn send(&mut self, req: MemReq) {
        assert!(self.req_word == 0, "port already has a pending request"); // gate-allow: protocol invariant: one request in flight per port
        self.req_word = REQ_VALID | u64::from(req.addr);
        if let MemOp::Write { data, strb } = req.op {
            self.req_word |= REQ_WRITE | u64::from(strb) << REQ_STRB_SHIFT;
            self.req_data = data;
        }
    }

    /// The request currently waiting for a grant, if any (memory side).
    #[must_use]
    #[inline]
    pub fn pending(&self) -> Option<MemReq> {
        let word = self.req_word;
        if word == 0 {
            return None;
        }
        let op = if word & REQ_WRITE != 0 {
            MemOp::Write { data: self.req_data, strb: (word >> REQ_STRB_SHIFT) as u8 }
        } else {
            MemOp::Read
        };
        Some(MemReq { addr: word as u32, op })
    }

    /// Memory side: consumes the pending request after granting it.
    #[inline]
    pub fn take_pending(&mut self) -> Option<MemReq> {
        let req = self.pending()?;
        self.req_word = 0;
        if req.is_read() {
            self.granted_reads += 1;
        } else {
            self.granted_writes += 1;
        }
        Some(req)
    }

    /// Memory side: records one cycle of arbitration back-pressure.
    #[inline]
    pub fn note_wait(&mut self) {
        self.wait_cycles += 1;
    }

    /// Memory side: enqueues a response that becomes visible to the
    /// master at `ready_cycle` — or once the responses queued before it
    /// are, if that is later: a port delivers in request order, so a
    /// fast answer behind a slow one (a TCDM or faulted access issued
    /// after a main-memory read) waits its turn.
    #[inline]
    pub fn push_rsp(&mut self, ready_cycle: u64, rsp: MemRsp) {
        let ready = self.rsps.back().map_or(ready_cycle, |&(t, _)| t.max(ready_cycle));
        self.rsps.push_back((ready, rsp));
    }

    /// Master side: pops the next response if it is ready at `now`.
    #[inline]
    pub fn take_rsp(&mut self, now: u64) -> Option<MemRsp> {
        match self.rsps.front() {
            Some(&(ready, rsp)) if ready <= now => {
                self.rsps.pop_front();
                Some(rsp)
            }
            _ => None,
        }
    }

    /// Whether a response is queued, ready or not — with no request
    /// pending either, nothing on this port can reach its master.
    #[must_use]
    #[inline]
    pub fn has_rsp(&self) -> bool {
        !self.rsps.is_empty()
    }

    /// Number of responses queued (in flight).
    #[must_use]
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.rsps.len() + usize::from(self.req_word != 0)
    }
}

/// The pending request as a master would read it, not its packing.
impl std::fmt::Debug for MemPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemPort")
            .field("pending", &self.pending())
            .field("rsps", &self.rsps)
            .field("granted_reads", &self.granted_reads)
            .field("granted_writes", &self.granted_writes)
            .field("wait_cycles", &self.wait_cycles)
            .finish()
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

    /// In-order delivery and the ready-cycle clamp hold with many
    /// responses outstanding (a burst of main-memory reads): a fast
    /// answer queued behind slow ones waits its turn.
    #[test]
    fn deep_queues_stay_in_order_and_clamped() {
        let mut p = MemPort::new();
        let n = 12;
        for i in 0..n {
            // Ready cycles fall while the queue grows: each is clamped
            // to the slowest response ahead of it.
            p.push_rsp(100 - i, MemRsp { data: i });
        }
        assert_eq!(p.in_flight(), n as usize);
        assert_eq!(p.take_rsp(99), None, "the head is ready at 100; nothing overtakes it");
        for i in 0..n {
            assert!(p.has_rsp());
            assert_eq!(p.take_rsp(100), Some(MemRsp { data: i }));
            // Refill behind the drain: still delivered last.
            if i == 0 {
                p.push_rsp(0, MemRsp { data: 1000 });
            }
        }
        assert_eq!(p.take_rsp(100), Some(MemRsp { data: 1000 }));
        assert!(!p.has_rsp() && p.in_flight() == 0);
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
