//! Per-process mailboxes ordered by delivery time.

use std::collections::VecDeque;

/// A message annotated with its virtual arrival time and a global send
/// sequence number (total order tie-breaker ⇒ deterministic delivery).
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    pub deliver_at: f64,
    pub seq: u64,
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Whether `self` is delivered before `other`: `(deliver_at, seq)`
    /// order, the payload opaque.
    fn precedes(&self, other: &Envelope<M>) -> bool {
        self.deliver_at
            .total_cmp(&other.deliver_at)
            .then(self.seq.cmp(&other.seq))
            .is_lt()
    }
}

/// Delivery-time-ordered mailbox: envelopes sorted by
/// `(deliver_at, seq)`, earliest at the front. Sends almost always arrive
/// in that order (the clock only moves forward and routes are FIFO), so
/// a push is usually an append and a pop never reorders.
#[derive(Clone, Debug)]
pub struct Mailbox<M> {
    queue: VecDeque<Envelope<M>>,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox {
            queue: VecDeque::new(),
        }
    }
}

impl<M> Mailbox<M> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, envelope: Envelope<M>) {
        let at = self.queue.partition_point(|e| e.precedes(&envelope));
        self.queue.insert(at, envelope);
    }

    /// Earliest delivery time of any pending message.
    pub fn earliest(&self) -> Option<f64> {
        self.queue.front().map(|e| e.deliver_at)
    }

    /// Pop the earliest message if it has arrived by time `now`.
    pub fn pop_ready(&mut self, now: f64) -> Option<Envelope<M>> {
        if self.earliest().is_some_and(|t| t <= now + 1e-12) {
            self.queue.pop_front()
        } else {
            None
        }
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(t: f64, seq: u64, msg: u32) -> Envelope<u32> {
        Envelope {
            deliver_at: t,
            seq,
            msg,
        }
    }

    #[test]
    fn pops_in_delivery_order() {
        let mut mb = Mailbox::new();
        mb.push(env(3.0, 1, 30));
        mb.push(env(1.0, 2, 10));
        mb.push(env(2.0, 3, 20));
        assert_eq!(mb.pop_ready(10.0).unwrap().msg, 10);
        assert_eq!(mb.pop_ready(10.0).unwrap().msg, 20);
        assert_eq!(mb.pop_ready(10.0).unwrap().msg, 30);
        assert!(mb.pop_ready(10.0).is_none());
    }

    #[test]
    fn sequence_breaks_time_ties() {
        let mut mb = Mailbox::new();
        mb.push(env(1.0, 7, 77));
        mb.push(env(1.0, 3, 33));
        assert_eq!(mb.pop_ready(1.0).unwrap().msg, 33);
        assert_eq!(mb.pop_ready(1.0).unwrap().msg, 77);
    }

    #[test]
    fn not_ready_before_delivery_time() {
        let mut mb = Mailbox::new();
        mb.push(env(5.0, 1, 1));
        assert!(mb.pop_ready(4.9).is_none());
        assert_eq!(mb.earliest(), Some(5.0));
        assert!(mb.pop_ready(5.0).is_some());
    }

    #[test]
    fn a_late_send_with_an_early_delivery_goes_first() {
        let mut mb = Mailbox::new();
        mb.push(env(4.0, 1, 40));
        mb.push(env(4.0, 3, 41));
        mb.push(env(2.0, 4, 20));
        mb.push(env(4.0, 2, 39));
        let order: Vec<u32> = std::iter::from_fn(|| mb.pop_ready(9.0).map(|e| e.msg)).collect();
        assert_eq!(order, vec![20, 40, 39, 41]);
    }

    #[test]
    fn len_tracks() {
        let mut mb: Mailbox<u32> = Mailbox::new();
        assert!(mb.is_empty());
        mb.push(env(1.0, 1, 1));
        assert_eq!(mb.len(), 1);
    }
}
