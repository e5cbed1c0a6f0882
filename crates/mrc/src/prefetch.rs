//! Software prefetch hint, for batched access loops.
//!
//! Bank tag/replacement arrays and the simulator's `u64`-keyed tables are
//! tens of megabytes and accessed in a hash-scattered order, so one
//! simulated access is latency-bound on the *host's* cache hierarchy. A
//! loop that can see a batch of upcoming events hides that latency by
//! hinting the lines of event `i + k` while serving event `i` — see
//! `LlcScheme::access_batch` in `wp-sim` and [`U64Map::prefetch`].
//!
//! [`U64Map::prefetch`]: crate::U64Map::prefetch

/// Hints the host CPU to pull the cache line containing `r` toward L1.
///
/// Purely a performance hint: no memory is read or written, and the
/// function is a no-op on architectures without a prefetch intrinsic.
#[inline(always)]
pub fn prefetch_read<T: ?Sized>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: `_mm_prefetch` only hints the address to the hardware
    // prefetcher; it performs no access and has no side effects on
    // program state, so any pointer value is sound to pass.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(r as *const T as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_inert() {
        // Only observable property: it doesn't crash or alter data, at
        // any alignment.
        let data = [1u8; 256];
        for byte in &data {
            prefetch_read(byte);
        }
        let v = vec![42u64; 1024];
        prefetch_read(&v[1023]);
        assert_eq!(data[128], 1);
        assert_eq!(v[0], 42);
    }
}
