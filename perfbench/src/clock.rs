//! Host clocks: per-thread CPU time and peak resident memory.
//!
//! Host time is taken as the calling thread's CPU time, never wall time:
//! on a shared host, wall time also counts the time the thread waited for a
//! CPU, which moves by tens of percent from run to run.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark reads Linux per-thread CPU clocks and /proc; build it on 64-bit Linux"
);

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed so far by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // of 64-bit Linux, and `clock_gettime` only writes through the pointer
    // for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    let secs = u64::try_from(ts.tv_sec).expect("CPU time is non-negative");
    let nanos = u64::try_from(ts.tv_nsec).expect("CPU time is non-negative");
    secs * 1_000_000_000 + nanos
}

/// Runs `f` and returns its result with the thread CPU seconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = thread_cpu_ns();
    let out = f();
    let dt = thread_cpu_ns() - t0;
    (out, dt as f64 * 1e-9)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The `VmHWM:` value, in KiB, from the text of `/proc/<pid>/status`.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_is_monotonic_and_advances_under_a_busy_loop() {
        let t0 = thread_cpu_ns();
        let mut prev = t0;
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            if i % 100_000 == 0 {
                let now = thread_cpu_ns();
                assert!(now >= prev, "thread CPU clock went backwards");
                prev = now;
            }
        }
        std::hint::black_box(acc);
        assert!(thread_cpu_ns() > t0, "a busy loop must consume CPU time");
    }

    #[test]
    fn cpu_clock_does_not_count_sleep() {
        let (_, secs) = cpu_timed(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(secs < 0.025, "sleeping charged {secs} s of CPU time");
    }

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert!(peak_rss_mib().expect("Linux has /proc/self/status") > 0.0);
    }
}
