//! Resident memory of this process, read from `/proc/self`.

use std::sync::atomic::{AtomicBool, Ordering};

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Lowers the peak resident set size to the current one (`5` written to
/// `/proc/self/clear_refs`, Linux 4.0 and later), so that the next
/// [`peak_rss_mb`] reads the peak since this call. Returns whether that
/// worked.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns the heap's free memory to the system (glibc `malloc_trim`),
/// so that the resident size drops back to what is in use; elsewhere it
/// does nothing.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only hands free
        // heap pages back to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

static METERING: AtomicBool = AtomicBool::new(false);

/// Turns per-unit memory metering on or off (see [`metering`]).
pub fn set_metering(on: bool) {
    METERING.store(on, Ordering::Relaxed);
}

/// Whether units should meter their memory: trim the heap and reset
/// the peak before the unit, read the peak after it. Off in timed
/// passes, whose units it would slow.
pub fn metering() -> bool {
    METERING.load(Ordering::Relaxed)
}
