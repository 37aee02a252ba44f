//! Intrusive job slab: one shared arena of job slots plus per-server
//! doubly-linked FIFO lists threaded through it.
//!
//! Every queued job in a [`crate::Cluster`] lives in one slot of a single
//! `Vec`. Freed slots go on a free list and are reused, so once the
//! simulation reaches its steady-state population, admitting and
//! completing jobs performs **zero heap allocations** — unlike one
//! `VecDeque` per server, each of which grows (and re-grows after
//! `drain`) on its own schedule. Links are `u32` indices (`NIL` =
//! `u32::MAX`), keeping a slot at 40 bytes and the whole pending-job set
//! in one contiguous, cache-friendly block.

use crate::Job;

/// Sentinel index: "no slot".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot {
    job: Job,
    /// Towards the tail (younger jobs); on the free list, the next free slot.
    next: u32,
    /// Towards the head (older jobs).
    prev: u32,
}

/// Arena of job slots shared by every server's queue in one cluster.
#[derive(Debug, Clone)]
pub(crate) struct JobSlab {
    slots: Vec<Slot>,
    free_head: u32,
}

impl JobSlab {
    pub(crate) fn new() -> Self {
        Self {
            slots: Vec::new(),
            free_head: NIL,
        }
    }

    /// Live slots (allocated and not yet freed) — for tests/debugging.
    #[cfg(test)]
    fn live(&self) -> usize {
        let mut free = 0;
        let mut idx = self.free_head;
        while idx != NIL {
            free += 1;
            idx = self.slots[idx as usize].next;
        }
        self.slots.len() - free
    }

    /// Stores `job`, reusing a freed slot when one exists.
    fn alloc(&mut self, job: Job) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next;
            slot.job = job;
            slot.next = NIL;
            slot.prev = NIL;
            idx
        } else {
            assert!(
                self.slots.len() < NIL as usize,
                "job slab exhausted (u32 index space)"
            );
            self.slots.push(Slot {
                job,
                next: NIL,
                prev: NIL,
            });
            (self.slots.len() - 1) as u32
        }
    }

    /// Returns `idx`'s job and puts the slot on the free list.
    fn dealloc(&mut self, idx: u32) -> Job {
        let slot = &mut self.slots[idx as usize];
        let job = slot.job;
        slot.next = self.free_head;
        slot.prev = NIL;
        self.free_head = idx;
        job
    }

    #[inline]
    fn job(&self, idx: u32) -> &Job {
        &self.slots[idx as usize].job
    }
}

/// One server's FIFO queue: head = oldest (the job in service), tail =
/// youngest. Purely an index pair — the jobs live in the [`JobSlab`].
#[derive(Debug, Clone)]
pub(crate) struct JobList {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for JobList {
    fn default() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

impl JobList {
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The oldest job (queue head / in service), if any.
    pub(crate) fn front<'s>(&self, slab: &'s JobSlab) -> Option<&'s Job> {
        (self.head != NIL).then(|| slab.job(self.head))
    }

    /// Appends `job` at the tail.
    pub(crate) fn push_back(&mut self, slab: &mut JobSlab, job: Job) {
        let idx = slab.alloc(job);
        slab.slots[idx as usize].prev = self.tail;
        if self.tail != NIL {
            slab.slots[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
        self.len += 1;
    }

    fn unlink(&mut self, slab: &mut JobSlab, idx: u32) -> Job {
        let (prev, next) = {
            let s = &slab.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            slab.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            slab.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.len -= 1;
        slab.dealloc(idx)
    }

    /// Removes and returns the oldest job.
    pub(crate) fn pop_front(&mut self, slab: &mut JobSlab) -> Option<Job> {
        (self.head != NIL).then(|| self.unlink(slab, self.head))
    }

    /// Removes and returns the youngest job.
    pub(crate) fn pop_back(&mut self, slab: &mut JobSlab) -> Option<Job> {
        (self.tail != NIL).then(|| self.unlink(slab, self.tail))
    }

    /// Removes the job with id `job_id`, skipping the first `skip` queue
    /// positions (e.g. the in-service head, which must not renege).
    pub(crate) fn remove_by_id(
        &mut self,
        slab: &mut JobSlab,
        job_id: u64,
        skip: usize,
    ) -> Option<Job> {
        let mut idx = self.head;
        for _ in 0..skip {
            if idx == NIL {
                return None;
            }
            idx = slab.slots[idx as usize].next;
        }
        while idx != NIL {
            if slab.job(idx).id == job_id {
                return Some(self.unlink(slab, idx));
            }
            idx = slab.slots[idx as usize].next;
        }
        None
    }

    /// Empties the list head-first into `out` (FIFO order preserved).
    pub(crate) fn drain_into(&mut self, slab: &mut JobSlab, out: &mut Vec<Job>) {
        while let Some(job) = self.pop_front(slab) {
            out.push(job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64) -> Job {
        Job::new(id, id as f64, 1.0)
    }

    #[test]
    fn fifo_order() {
        let mut slab = JobSlab::new();
        let mut q = JobList::default();
        for i in 0..5 {
            q.push_back(&mut slab, job(i));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.front(&slab).unwrap().id, 0);
        for i in 0..5 {
            assert_eq!(q.pop_front(&mut slab).unwrap().id, i);
        }
        assert!(q.is_empty());
        assert_eq!(q.pop_front(&mut slab), None);
    }

    #[test]
    fn pop_back_takes_youngest() {
        let mut slab = JobSlab::new();
        let mut q = JobList::default();
        for i in 0..3 {
            q.push_back(&mut slab, job(i));
        }
        assert_eq!(q.pop_back(&mut slab).unwrap().id, 2);
        assert_eq!(q.pop_front(&mut slab).unwrap().id, 0);
        assert_eq!(q.pop_back(&mut slab).unwrap().id, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn remove_by_id_respects_skip() {
        let mut slab = JobSlab::new();
        let mut q = JobList::default();
        for i in 0..4 {
            q.push_back(&mut slab, job(i));
        }
        // Head is "in service": cannot be removed with skip=1.
        assert_eq!(q.remove_by_id(&mut slab, 0, 1), None);
        assert_eq!(q.remove_by_id(&mut slab, 2, 1).unwrap().id, 2);
        assert_eq!(q.len(), 3);
        // Remaining FIFO order intact: 0, 1, 3.
        assert_eq!(q.pop_front(&mut slab).unwrap().id, 0);
        assert_eq!(q.pop_front(&mut slab).unwrap().id, 1);
        assert_eq!(q.pop_front(&mut slab).unwrap().id, 3);
    }

    #[test]
    fn slots_are_reused_not_grown() {
        let mut slab = JobSlab::new();
        let mut q = JobList::default();
        // Warm up to population 8.
        for i in 0..8 {
            q.push_back(&mut slab, job(i));
        }
        let warm = slab.slots.len();
        // Steady-state churn at population <= 8 must not grow the arena.
        for round in 0..1000u64 {
            q.pop_front(&mut slab);
            q.push_back(&mut slab, job(100 + round));
        }
        assert_eq!(slab.slots.len(), warm);
        assert_eq!(slab.live(), 8);
    }

    #[test]
    fn two_lists_share_one_slab() {
        let mut slab = JobSlab::new();
        let mut a = JobList::default();
        let mut b = JobList::default();
        a.push_back(&mut slab, job(1));
        b.push_back(&mut slab, job(2));
        a.push_back(&mut slab, job(3));
        assert_eq!(a.pop_front(&mut slab).unwrap().id, 1);
        assert_eq!(b.pop_front(&mut slab).unwrap().id, 2);
        assert_eq!(a.pop_front(&mut slab).unwrap().id, 3);
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn drain_preserves_order() {
        let mut slab = JobSlab::new();
        let mut q = JobList::default();
        for i in 0..4 {
            q.push_back(&mut slab, job(i));
        }
        let mut out = Vec::new();
        q.drain_into(&mut slab, &mut out);
        assert_eq!(
            out.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(q.is_empty());
        assert_eq!(slab.live(), 0);
    }
}
