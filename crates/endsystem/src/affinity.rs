//! Best-effort CPU pinning of the calling thread, for benchmark rigs whose
//! timed runs a migration would smear; no product thread pins itself. The
//! Linux `sched_setaffinity` syscall is wrapped as a single safe,
//! infallible-by-contract call; every other platform (and any kernel
//! refusal) degrades to a no-op.
//!
//! The syscall is issued through a raw `asm!` block rather than libc —
//! this workspace builds offline with no external crates. With the SPSC
//! ring it is the crate's unsafe code: the `allow` below exempts it from
//! the workspace's `unsafe_code = "deny"`.
#![allow(unsafe_code)]

/// Pins the calling thread to `cpu` (a zero-based logical CPU index).
///
/// Returns `true` when the kernel accepted the mask. Returns `false` —
/// with the thread's affinity unchanged — when `cpu` is out of the mask's
/// range, the kernel rejects the request (e.g. the CPU is offline or
/// outside the cgroup's cpuset), or the platform is not x86_64 Linux.
pub fn pin_current_thread(cpu: usize) -> bool {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let mut mask = [0u64; 16]; // 1024-bit cpu_set_t, zero-initialized
        if cpu >= mask.len() * 64 {
            return false;
        }
        mask[cpu / 64] = 1u64 << (cpu % 64);
        let ret: i64;
        // SAFETY: sched_setaffinity(pid=0 → calling thread, len, *mask) only
        // reads `len` bytes from `mask`, which outlives the call on this
        // frame; rcx/r11 are declared clobbered per the syscall ABI and no
        // Rust-visible state is otherwise touched.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 203i64 => ret, // __NR_sched_setaffinity
                in("rdi") 0usize,
                in("rsi") std::mem::size_of_val(&mask),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = cpu;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_cpu_is_rejected() {
        assert!(!pin_current_thread(1024));
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn pinning_to_cpu_zero_succeeds() {
        // CPU 0 always exists; pin a scratch thread rather than the test
        // harness thread so we don't perturb sibling tests.
        let ok = std::thread::spawn(|| pin_current_thread(0)).join().unwrap();
        assert!(ok, "pinning to CPU 0 should be accepted");
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn offline_cpu_fails_gracefully() {
        // CPU 1023 is within mask range but almost certainly not in this
        // machine's online set; either outcome must leave us running.
        let _ = pin_current_thread(1023);
    }
}
