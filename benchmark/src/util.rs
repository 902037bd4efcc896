//! Shared pieces of the three workloads: percentiles, the closed-loop read
//! loop, the open-loop commit loop, exact brute-force references, the
//! kernel row-cost probe and the vCPU spinners.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tv_common::{kernels, TvError};

/// Reads issued before measuring, so caches fill and lazy set-up (worker
/// pool, scratch pools) finishes first.
pub const WARMUP: Duration = Duration::from_millis(500);

/// Commits per second of `fresh_mixed`'s open-loop writer.
pub const COMMIT_RATE: f64 = 400.0;

/// The writer sleeps until this long before a commit is due and spins the
/// rest, so its own lateness stays below the commit time on most wake-ups
/// (sleep overshoot on a 2-vCPU VM is about 0.1 ms at p90). It sleeps every
/// period: a writer that never sleeps stays on one physical core, and its
/// commit time then depends on that core's neighbours.
pub const SPIN: Duration = Duration::from_micros(500);

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Linear-interpolated quantile of sorted values.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail percentile a sample of `n` supports: p99 when at least ten
/// samples lie above it, otherwise the highest quantile that leaves ten.
pub fn tail_q(n: usize) -> f64 {
    if n <= 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// Median and supported tail of a latency sample in nanoseconds, converted by
/// `scale` (e.g. 1e-6 for ms). Returns `(p50, tail, tail_q)`.
pub fn p50_tail(ns: &[u64], scale: f64) -> (f64, f64, f64) {
    let mut v: Vec<f64> = ns.iter().map(|&x| x as f64 * scale).collect();
    v.sort_by(f64::total_cmp);
    let q = tail_q(v.len());
    (quantile_sorted(&v, 0.5), quantile_sorted(&v, q), q)
}

/// Whether an error is the admission controller shedding load (counted as a
/// failed operation but not a correctness violation).
pub fn is_shed(e: &TvError) -> bool {
    matches!(e, TvError::Overloaded(_))
}

/// One client's log of a closed-loop phase.
pub struct ClientLog<R> {
    /// Per completed operation: latency and its output.
    pub ok: Vec<(u64, R)>,
    /// Per completed operation: completion time since the phase started, ns.
    pub done_ns: Vec<u64>,
    /// Operations that returned an error.
    pub failed: u64,
    /// Errors other than load shedding — correctness violations.
    pub unexpected: Vec<String>,
}

/// Run `clients` closed-loop clients until `until`. `op(client, seq)` issues
/// one operation; its latency is measured around the call. While `hold` is
/// set, clients wait before sending their next operation. A shed request
/// backs off 2 ms instead of spinning on the admission queue.
pub fn closed_loop<R: Send>(
    clients: usize,
    until: Instant,
    hold: Option<&AtomicBool>,
    op: impl Fn(usize, u64) -> Result<R, TvError> + Sync,
) -> (Vec<ClientLog<R>>, f64) {
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let op = &op;
                s.spawn(move || {
                    let mut log = ClientLog {
                        ok: Vec::new(),
                        done_ns: Vec::new(),
                        failed: 0,
                        unexpected: Vec::new(),
                    };
                    let mut seq = 0u64;
                    while Instant::now() < until {
                        if hold.is_some_and(|h| h.load(Ordering::SeqCst)) {
                            std::thread::sleep(Duration::from_micros(200));
                            continue;
                        }
                        let t0 = Instant::now();
                        let r = op(c, seq);
                        let ns = t0.elapsed().as_nanos() as u64;
                        seq += 1;
                        match r {
                            Ok(out) => {
                                log.ok.push((ns, out));
                                log.done_ns.push(start.elapsed().as_nanos() as u64);
                            }
                            Err(e) => {
                                log.failed += 1;
                                if is_shed(&e) {
                                    std::thread::sleep(Duration::from_millis(2));
                                } else if log.unexpected.len() < 8 {
                                    log.unexpected.push(e.to_string());
                                }
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// Log of an open-loop commit phase.
#[derive(Default)]
pub struct WriteLog {
    /// Commit latency from its due time to completion, ns.
    pub commit_ns: Vec<u64>,
    /// Commit service time (the `commit()` call alone), ns.
    pub service_ns: Vec<u64>,
    /// How late the writer sent each commit, ns.
    pub late_ns: Vec<u64>,
    /// Failed commits.
    pub failed: u64,
    /// Error texts of failed commits (every commit failure is unexpected).
    pub unexpected: Vec<String>,
}

/// Issue commits on an open-loop schedule of [`COMMIT_RATE`] per second
/// until `max` commits were sent or `stop` is set, sleeping until [`SPIN`]
/// before each due time. `commit(seq)` performs one commit; `after(seq)`
/// runs after it, outside its timing (the inline vacuum of `fresh_mixed`).
/// Each commit is timed from when it was due, so a stall also charges the
/// commits queued behind it. Lateness is recorded only for commits that were
/// not due while `after` ran: it measures the generator, not the stall.
pub fn open_loop_commits(
    max: usize,
    stop: &AtomicBool,
    mut commit: impl FnMut(u64) -> Result<(), TvError>,
    mut after: impl FnMut(u64),
) -> WriteLog {
    let period = Duration::from_secs_f64(1.0 / COMMIT_RATE);
    let start = Instant::now() + period;
    let mut log = WriteLog::default();
    let mut stalled_until = start;
    for seq in 0..max as u64 {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let due = start + period * seq as u32;
        let now = Instant::now();
        if now + SPIN < due {
            std::thread::sleep(due - SPIN - now);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        let r = commit(seq);
        let done = Instant::now();
        if due >= stalled_until {
            log.late_ns.push((sent - due).as_nanos() as u64);
        }
        log.service_ns.push((done - sent).as_nanos() as u64);
        match r {
            Ok(()) => log.commit_ns.push((done - due).as_nanos() as u64),
            Err(e) => {
                log.failed += 1;
                if log.unexpected.len() < 8 {
                    log.unexpected.push(e.to_string());
                }
            }
        }
        let hook = Instant::now();
        after(seq);
        if hook.elapsed() > period {
            stalled_until = Instant::now();
        }
    }
    log
}

/// Row-major slab of vectors: the benchmark's own copy of the data.
pub struct Slab {
    /// Dimension.
    pub dim: usize,
    /// `rows × dim` values.
    pub data: Vec<f32>,
}

impl Slab {
    /// Slab from row vectors.
    pub fn from_rows(dim: usize, rows: &[Vec<f32>]) -> Self {
        let mut data = Vec::with_capacity(rows.len() * dim);
        for r in rows {
            data.extend_from_slice(r);
        }
        Slab { dim, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len() / self.dim.max(1)
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Exact top-`k` rows (by squared L2) among those `keep` accepts, as row
    /// indices nearest first. `dists` is scratch of at least `rows()` floats.
    pub fn exact_top_k(
        &self,
        q: &[f32],
        k: usize,
        dists: &mut Vec<f32>,
        keep: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        dists.resize(self.rows(), 0.0);
        kernels::active().l2_sq_batch(q, &self.data, dists);
        let mut best: Vec<(f32, usize)> = dists
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep(i))
            .map(|(i, &d)| (d, i))
            .collect();
        let k = k.min(best.len());
        if k == 0 {
            return Vec::new();
        }
        best.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        best.truncate(k);
        best.sort_by(|a, b| a.0.total_cmp(&b.0));
        best.into_iter().map(|(_, i)| i).collect()
    }
}

/// Recall of `got` against the exact answer `exact` (denominator: the exact
/// answer's size, which is below `k` only when fewer rows qualify).
pub fn recall<T: PartialEq>(got: &[T], exact: &[T]) -> Option<f64> {
    if exact.is_empty() {
        return None;
    }
    let hits = exact.iter().filter(|e| got.contains(e)).count();
    Some(hits as f64 / exact.len() as f64)
}

/// `l2_sq_batch` cost per row over the workload's own slab, ns: repeated
/// full scans with the slab's own rows as queries for at least 200 ms.
pub fn kernel_ns_per_row(slab: &Slab) -> f64 {
    let kern = kernels::active();
    let rows = slab.rows();
    let mut out = vec![0.0f32; rows];
    let mut scanned = 0usize;
    let mut qi = 0usize;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(200) {
        let q = slab.row(qi % rows);
        kern.l2_sq_batch(q, &slab.data, &mut out);
        std::hint::black_box(&out);
        scanned += rows;
        qi += 7919;
    }
    start.elapsed().as_secs_f64() * 1e9 / scanned as f64
}

/// Deterministic permutation of `0..n` drawn from `rng`.
pub fn permutation(n: usize, rng: &mut tv_common::SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// `SCHED_IDLE` from `<sched.h>`: the lowest scheduling class; a waking
/// thread of any other class preempts it at once.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_yield() -> i32;
}

/// Keeps every vCPU out of the idle halt while it lives: one `SCHED_IDLE`
/// thread per CPU that calls `sched_yield` in a loop.
///
/// On a VM, a vCPU with nothing to run halts and hands its physical core
/// back to the host, which runs other guests there; waking it again takes
/// a host reschedule, and the other guests evict its caches meanwhile. Both
/// costs depend on how busy the host is, not on the program, and they hit
/// every closed-loop read that waits on the batcher's window or a pool
/// worker. With the spinners the guest never halts (as under `idle=poll`):
/// the program's threads preempt a spinner as soon as they wake, and a
/// spinner that does get picked while a program thread is runnable yields
/// at once. Held over the read phases only (see `run::read_phases`).
pub struct KeepAwake {
    stop: std::sync::Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Start one spinner per CPU. A spinner that cannot lower its own
    /// scheduling class exits instead of competing with the program.
    pub fn start() -> Self {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .map(|_| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: pid 0 names the calling thread; `param` outlives
                    // the call.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        // SAFETY: takes no arguments and touches no memory.
                        unsafe { sched_yield() };
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
