//! Host-speed gauge: a frozen reference kernel that shares the benchmark's
//! CPU, so that times can be stated in reference-host seconds.
//!
//! On a shared host the simulator's speed moves with its neighbours: the
//! same point runs anywhere from 0.75× to 2× its median time, changing
//! within a second and drifting over minutes. A reference kernel timed
//! before or after a point follows that only loosely (sample correlation
//! about 0.4). The same kernel running *interleaved* with the simulator on
//! the same CPU follows it closely (correlation 0.82 to 0.94), because both
//! see the same neighbours at the same moments.
//!
//! [`Gauge::start`] therefore pins the process to one CPU and starts the
//! kernel on a second thread. Both threads get an 8 ms scheduler slice, so
//! they take turns at a granularity finer than the host's drift but coarse
//! enough that refilling the caches after a switch costs little. A
//! benchmark time is then the calling thread's CPU time over an interval,
//! divided by the host-speed factor over the same interval: the kernel's
//! CPU time per step, over [`REF_STEP_NS`]. The kernel's code never
//! changes, so the factor measures the host alone, and a change to the
//! simulator moves the numerator only.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// The kernel's CPU time per step on the host the bounds were set on (a
/// 2-vCPU Xeon VM while it ran steadily), sharing its CPU with the
/// simulator. Times divided by the factor are in seconds of that host.
pub const REF_STEP_NS: f64 = 280.0;

/// Steps between two progress reports of the kernel thread (about 0.5 ms).
const CHUNK_STEPS: u64 = 2_000;

/// Reference-kernel steps an interval must cover for its own factor to be
/// used; shorter intervals fall back to the factor since the gauge started.
const MIN_INTERVAL_STEPS: u64 = 20 * CHUNK_STEPS;

/// Scheduler slice requested for both threads. Against 20 ms, 8 ms raised
/// the per-point correlation between the simulator's and the kernel's
/// times on `ramp` from 0.70–0.79 to 0.82–0.89 and halved the spread left
/// after dividing one by the other; the simulator's CPU time did not
/// measurably grow.
pub const SLICE_NS: u64 = 8_000_000;

/// Nice value of the kernel thread: at 5 it gets about a quarter of the
/// CPU, which leaves the simulator most of the run while the kernel still
/// runs every few slices.
const KERNEL_NICE: i32 = 5;

/// CPU time of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Pins the calling thread (and threads it spawns later) to the lowest CPU
/// it may run on. Returns that CPU, or `None` if the affinity calls fail.
fn pin_to_one_cpu() -> Option<usize> {
    const SET_BYTES: usize = 128;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; SET_BYTES];
    // SAFETY: `mask` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..SET_BYTES * 8).find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of the size passed.
    (unsafe { sched_setaffinity(0, SET_BYTES, one.as_ptr()) } == 0).then_some(cpu)
}

/// Asks for a [`SLICE_NS`] scheduler slice and the nice value `nice` for
/// the calling thread (`sched_setattr` with `sched_runtime` on a
/// normal-policy thread, Linux 6.12 and later). Returns whether the kernel
/// accepted it; older kernels keep their default slice, which only makes
/// the switches more frequent.
fn request_slice(nice: i32) -> bool {
    #[repr(C)]
    struct SchedAttr {
        size: u32,
        policy: u32,
        flags: u64,
        nice: i32,
        priority: u32,
        runtime: u64,
        deadline: u64,
        period: u64,
        util_min: u32,
        util_max: u32,
    }
    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_SETATTR: i64 = 314;
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_SETATTR: i64 = 274;
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    return false;
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    {
        extern "C" {
            fn syscall(number: i64, ...) -> i64;
        }
        let attr = SchedAttr {
            size: std::mem::size_of::<SchedAttr>() as u32,
            policy: 0,
            flags: 0,
            nice,
            priority: 0,
            runtime: SLICE_NS,
            deadline: 0,
            period: 0,
            util_min: 0,
            util_max: 0,
        };
        // SAFETY: `attr` is a valid sched_attr whose `size` field is its
        // size; pid 0 is the calling thread.
        unsafe { syscall(SYS_SCHED_SETATTR, 0i64, &attr as *const SchedAttr, 0u32) == 0 }
    }
}

/// Resident set of this process in MiB (`VmRSS`, or `VmHWM` for the peak).
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The reference kernel: a simulator-shaped loop frozen in this file. Each
/// step looks a line of a skewed stream up in two set-associative tag
/// arrays (LRU by rotation), takes a four-step read-modify-write walk
/// through a 16 MiB table and bumps a per-page count in a hash map.
/// Every buffer is allocated at full size up front, so the kernel's
/// resident memory is fixed once it has run.
struct Kernel {
    l1: Vec<u64>,
    l2: Vec<u64>,
    table: Vec<u64>,
    pages: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    x: u64,
    sink: u64,
}

impl Kernel {
    const PAGES: usize = 1 << 16;

    fn new() -> Kernel {
        Kernel {
            l1: vec![u64::MAX; 64 * 8],
            l2: vec![u64::MAX; 2048 * 16],
            table: vec![0; 2 << 20],
            pages: HashMap::with_capacity_and_hasher(Self::PAGES, Default::default()),
            x: 0x2545_F491_4F6C_DD1D,
            sink: 0,
        }
    }

    /// Looks `line` up in a tag array of `ways`-way sets, inserting it on
    /// a miss. Returns whether it hit.
    fn lookup(tags: &mut [u64], ways: usize, line: u64) -> bool {
        let base = (line as usize % (tags.len() / ways)) * ways;
        let set = &mut tags[base..base + ways];
        match set.iter().position(|&t| t == line) {
            Some(i) => {
                set[..=i].rotate_right(1);
                true
            }
            None => {
                set.rotate_right(1);
                set[0] = line;
                false
            }
        }
    }

    fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            let mut x = self.x;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.x = x;
            // Log-uniform reuse distance: region sizes 2^0 .. 2^26 lines.
            let region = (x >> 59) as u32 % 27;
            let line = (x & ((1u64 << region) - 1)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 38;
            // Every step goes on to the table and the map whatever the tag
            // arrays say. With an early exit on a hit, the simulator's time
            // moved 1.4 times as much as the kernel's with the host's load
            // (log-log slope on `steady-small`); without it, 1.1 times.
            let hits = u64::from(Self::lookup(&mut self.l1, 8, line))
                + u64::from(Self::lookup(&mut self.l2, 16, line));
            self.sink += hits;
            let mut idx = line % self.table.len() as u64;
            for _ in 0..4 {
                let v = self.table[idx as usize].wrapping_add(line | 1);
                self.table[idx as usize] = v;
                self.sink ^= v;
                idx = (idx >> 3) ^ (v & 7);
            }
            if self.pages.len() == Self::PAGES {
                self.pages.clear();
            }
            *self.pages.entry(line >> 6).or_insert(0) += 1;
        }
    }
}

/// Kernel progress: steps run and the kernel thread's CPU seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Progress {
    steps: u64,
    cpu_s: f64,
}

/// A point in time as the gauge sees it.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    own_cpu_s: f64,
    kernel: Progress,
}

/// The running reference kernel. Dropping it stops and joins the thread.
pub struct Gauge {
    progress: Arc<Mutex<Progress>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    start: Mark,
    /// Resident memory the kernel added to the process, in MiB.
    pub kernel_mb: f64,
    /// The CPU both threads were pinned to, if pinning worked.
    pub cpu: Option<usize>,
    /// Whether both threads got the requested scheduler slice.
    pub sliced: bool,
}

impl Gauge {
    /// Pins the process to one CPU, starts the kernel thread and waits
    /// until its buffers are resident.
    pub fn start() -> Gauge {
        let cpu = pin_to_one_cpu();
        let main_sliced = request_slice(0);
        let rss_before = status_mb("VmRSS");
        let progress = Arc::new(Mutex::new(Progress::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let thread = {
            let (progress, stop) = (Arc::clone(&progress), Arc::clone(&stop));
            std::thread::spawn(move || {
                let sliced = request_slice(KERNEL_NICE);
                let mut kernel = Kernel::new();
                // Touch every page of the table and the map's buckets so
                // the kernel's memory is resident before it is measured.
                kernel.table.iter_mut().for_each(|v| *v = 1);
                kernel
                    .pages
                    .extend((0..Kernel::PAGES as u64).map(|p| (p, 0)));
                kernel.pages.clear();
                let _ = ready_tx.send(sliced);
                let (mut steps, base) = (0u64, thread_cpu_s());
                while !stop.load(Ordering::Relaxed) {
                    kernel.run(CHUNK_STEPS);
                    steps += CHUNK_STEPS;
                    *progress.lock().unwrap() = Progress {
                        steps,
                        cpu_s: thread_cpu_s() - base,
                    };
                }
                std::hint::black_box(kernel.sink);
            })
        };
        let kernel_sliced = ready_rx.recv().unwrap_or(false);
        let kernel_mb = status_mb("VmRSS") - rss_before;
        let mut gauge = Gauge {
            progress,
            stop,
            thread: Some(thread),
            start: Mark {
                own_cpu_s: 0.0,
                kernel: Progress::default(),
            },
            kernel_mb,
            cpu,
            sliced: main_sliced && kernel_sliced,
        };
        gauge.start = gauge.mark();
        gauge
    }

    /// The calling thread's CPU time and the kernel's progress, now.
    pub fn mark(&self) -> Mark {
        Mark {
            own_cpu_s: thread_cpu_s(),
            kernel: *self.progress.lock().unwrap(),
        }
    }

    /// Host-speed factor over `[a, b]`: the kernel's CPU time per step over
    /// [`REF_STEP_NS`]. Above 1 the host ran slower than the reference.
    /// Intervals too short for the kernel to have run much use the factor
    /// since the gauge started.
    pub fn factor(&self, a: &Mark, b: &Mark) -> f64 {
        let a = if b.kernel.steps - a.kernel.steps < MIN_INTERVAL_STEPS {
            &self.start
        } else {
            a
        };
        let steps = b.kernel.steps - a.kernel.steps;
        if steps == 0 {
            // The kernel has not run yet: no measurement, report host time.
            return 1.0;
        }
        (b.kernel.cpu_s - a.kernel.cpu_s) / steps as f64 * 1e9 / REF_STEP_NS
    }

    /// The calling thread's CPU seconds over `[a, b]`, in reference-host
    /// seconds.
    pub fn seconds(&self, a: &Mark, b: &Mark) -> f64 {
        self.cpu_seconds(a, b) / self.factor(a, b)
    }

    /// The calling thread's CPU seconds over `[a, b]`, as measured.
    pub fn cpu_seconds(&self, a: &Mark, b: &Mark) -> f64 {
        b.own_cpu_s - a.own_cpu_s
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
