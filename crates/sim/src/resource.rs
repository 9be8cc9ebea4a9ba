//! Serial resources: disks, network pipes, and task slots.
//!
//! The simulator models every contended device as a FIFO *serial
//! resource*: work reserves the device from `max(now, busy_until)` for a
//! duration derived from the device's rate, and the device's horizon
//! advances. This captures queueing delay to first order, which is what
//! drives all of the paper's load-balancing results.

use crate::time::SimTime;
use std::collections::VecDeque;

/// A FIFO device with a service rate in bytes/second and a fixed per-
/// request overhead in seconds (disk seek, network round-trip).
#[derive(Clone, Debug)]
pub struct SerialResource {
    rate: f64,
    per_request: f64,
    busy_until: f64,
    /// Total busy seconds accumulated (utilization accounting).
    busy_total: f64,
    requests: u64,
    bytes: u64,
}

impl SerialResource {
    /// `rate` in bytes/second, `per_request` fixed seconds per request.
    pub fn new(rate: f64, per_request: f64) -> SerialResource {
        assert!(rate > 0.0, "rate must be positive");
        assert!(per_request >= 0.0);
        SerialResource { rate, per_request, busy_until: 0.0, busy_total: 0.0, requests: 0, bytes: 0 }
    }

    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Earliest time the device is free.
    pub fn available_at(&self, now: SimTime) -> SimTime {
        SimTime(self.busy_until.max(now.secs()))
    }

    /// Reserve the device for `bytes` starting no earlier than `now`;
    /// returns the completion time. FIFO: requests are served in
    /// submission order because each reservation pushes the horizon.
    pub fn reserve(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.busy_until.max(now.secs());
        let dur = self.per_request + bytes as f64 / self.rate;
        self.busy_until = start + dur;
        self.busy_total += dur;
        self.requests += 1;
        self.bytes += bytes;
        SimTime(self.busy_until)
    }

    pub fn busy_seconds(&self) -> f64 {
        self.busy_total
    }

    pub fn requests(&self) -> u64 {
        self.requests
    }

    pub fn bytes_served(&self) -> u64 {
        self.bytes
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.secs() <= 0.0 {
            0.0
        } else {
            (self.busy_total / horizon.secs()).min(1.0)
        }
    }
}

/// A counting pool of identical task slots on one node (the paper gives
/// every server 8 map and 8 reduce slots). Work items queue FIFO when all
/// slots are taken; the pool tracks, per slot, how many tasks it ran (for
/// the tasks-per-slot stdev metric in §III-C).
#[derive(Clone, Debug)]
pub struct SlotPool {
    /// Completion horizon per slot: slot i is free at `free_at[i]`.
    free_at: Vec<f64>,
    /// Tasks executed per slot.
    executed: Vec<u64>,
    /// FIFO of queued (submit_time) used only for stats.
    queued: VecDeque<f64>,
}

impl SlotPool {
    pub fn new(slots: usize) -> SlotPool {
        assert!(slots > 0, "a node needs at least one slot");
        SlotPool { free_at: vec![0.0; slots], executed: vec![0; slots], queued: VecDeque::new() }
    }

    pub fn slots(&self) -> usize {
        self.free_at.len()
    }

    /// Earliest time any slot is free.
    pub fn next_free(&self, now: SimTime) -> SimTime {
        let m = self.free_at.iter().cloned().fold(f64::INFINITY, f64::min);
        SimTime(m.max(now.secs()))
    }

    /// Number of slots idle at `now`.
    pub fn idle_slots(&self, now: SimTime) -> usize {
        self.free_at.iter().filter(|&&t| t <= now.secs()).count()
    }

    /// Run a task of `dur` seconds, starting when the earliest slot frees
    /// (FIFO). Returns (start, completion).
    pub fn run(&mut self, now: SimTime, dur: f64) -> (SimTime, SimTime) {
        assert!(dur >= 0.0);
        // Earliest-free slot; ties broken by index for determinism.
        let (idx, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(&b.0)))
            .expect("pool non-empty");
        let start = free.max(now.secs());
        let end = start + dur;
        self.free_at[idx] = end;
        self.executed[idx] += 1;
        if start > now.secs() {
            self.queued.push_back(now.secs());
        }
        (SimTime(start), SimTime(end))
    }

    /// Tasks executed by each slot.
    pub fn tasks_per_slot(&self) -> &[u64] {
        &self.executed
    }

    /// Total tasks executed on this node.
    pub fn total_tasks(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Completion horizon of the busiest slot.
    pub fn makespan(&self) -> SimTime {
        SimTime(self.free_at.iter().cloned().fold(0.0, f64::max))
    }

    /// How many tasks had to queue (found no idle slot at submit).
    pub fn queued_count(&self) -> usize {
        self.queued.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_resource_fifo_queueing() {
        let mut d = SerialResource::new(100.0, 0.0);
        let t1 = d.reserve(SimTime(0.0), 100); // 1s of work
        assert_eq!(t1.secs(), 1.0);
        // Second request at t=0 queues behind the first.
        let t2 = d.reserve(SimTime(0.0), 200);
        assert_eq!(t2.secs(), 3.0);
        // A request after the queue drains starts immediately.
        let t3 = d.reserve(SimTime(10.0), 100);
        assert_eq!(t3.secs(), 11.0);
        assert_eq!(d.requests(), 3);
        assert_eq!(d.bytes_served(), 400);
        assert!((d.busy_seconds() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn per_request_overhead_applies() {
        let mut d = SerialResource::new(1000.0, 0.5);
        let t = d.reserve(SimTime(0.0), 1000);
        assert!((t.secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_bounded() {
        let mut d = SerialResource::new(10.0, 0.0);
        d.reserve(SimTime(0.0), 50); // 5s busy
        assert!((d.utilization(SimTime(10.0)) - 0.5).abs() < 1e-12);
        assert_eq!(d.utilization(SimTime(0.0)), 0.0);
        assert_eq!(d.utilization(SimTime(1.0)), 1.0);
    }

    #[test]
    fn slot_pool_parallelism() {
        let mut p = SlotPool::new(2);
        let (s1, e1) = p.run(SimTime(0.0), 10.0);
        let (s2, e2) = p.run(SimTime(0.0), 10.0);
        // Two slots run in parallel.
        assert_eq!((s1.secs(), e1.secs()), (0.0, 10.0));
        assert_eq!((s2.secs(), e2.secs()), (0.0, 10.0));
        // Third task queues on the earliest-free slot.
        let (s3, e3) = p.run(SimTime(0.0), 5.0);
        assert_eq!((s3.secs(), e3.secs()), (10.0, 15.0));
        assert_eq!(p.total_tasks(), 3);
        assert_eq!(p.queued_count(), 1);
        assert_eq!(p.makespan().secs(), 15.0);
    }

    #[test]
    fn slot_pool_idle_accounting() {
        let mut p = SlotPool::new(4);
        assert_eq!(p.idle_slots(SimTime(0.0)), 4);
        p.run(SimTime(0.0), 2.0);
        assert_eq!(p.idle_slots(SimTime(1.0)), 3);
        assert_eq!(p.idle_slots(SimTime(2.0)), 4);
        assert_eq!(p.next_free(SimTime(0.0)).secs(), 0.0);
    }

    #[test]
    fn tasks_spread_across_slots() {
        let mut p = SlotPool::new(3);
        for _ in 0..9 {
            p.run(SimTime(0.0), 1.0);
        }
        assert_eq!(p.tasks_per_slot(), &[3, 3, 3]);
    }
}
