//! KML development API — the portability layer described in §3.3 of the paper.
//!
//! The original KML compiles the *exact same* ML code in user space and in the
//! Linux kernel by wrapping every external facility (memory allocation,
//! threading, logging, atomics, file operations) behind a thin API of 27
//! functions (e.g. `kml_malloc` calls `malloc` in user space and `kmalloc` in
//! the kernel). This crate is the Rust rendition of that layer: all other KML
//! crates obtain memory, threads, logs, atomics, and files exclusively through
//! it, so the ML code above stays persona-agnostic.
//!
//! Two [`Persona`]s are provided:
//!
//! - [`Persona::User`] — plain userspace behaviour.
//! - [`Persona::Kernel`] — simulated kernel discipline: floating-point use
//!   must be bracketed by [`fpu::FpuGuard`] sections (the analogue of
//!   `kernel_fpu_begin`/`kernel_fpu_end`), allocation can be served from a
//!   pre-reserved pool (§3.1 "memory reservation"), and allocation-failure
//!   injection is available for fault testing.
//!
//! # Quick example
//!
//! ```
//! use kml_platform::{alloc::KmlAllocator, fpu, Persona};
//!
//! let alloc = KmlAllocator::new(Persona::Kernel);
//! alloc.reserve(4096).unwrap();               // paper §3.1: memory reservation
//! let buf = alloc.alloc_bytes(1024).unwrap(); // served from the reservation
//! assert_eq!(buf.len(), 1024);
//!
//! let _guard = fpu::FpuGuard::enter();        // kernel_fpu_begin()
//! let y = 2.0_f64.sqrt();                     // FP allowed inside the guard
//! assert!(y > 1.0);
//! // guard drop == kernel_fpu_end()
//! ```

pub mod alloc;
pub mod atomics;
pub mod bytes;
pub mod fileops;
pub mod fpu;
pub mod logging;
pub mod sampler;
pub mod seqring;
pub mod threading;

/// Which environment the KML code believes it is running in.
///
/// The paper's KML compiles identical code for user space and kernel space;
/// we model the same split as a runtime persona so tests can exercise the
/// kernel discipline (FPU guards, reserved memory) without an actual kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Persona {
    /// Ordinary userspace semantics (`malloc`, `pthread`, `printf`, ...).
    #[default]
    User,
    /// Simulated kernel semantics (`kmalloc`, kthreads, `printk`, FPU guards).
    Kernel,
}

impl std::fmt::Display for Persona {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Persona::User => f.write_str("user"),
            Persona::Kernel => f.write_str("kernel"),
        }
    }
}

/// Errors produced by the platform layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// An allocation could not be satisfied (pool exhausted or fault injected).
    OutOfMemory {
        /// Bytes that were requested.
        requested: usize,
        /// Bytes still available in the reservation, if one is active.
        available: Option<usize>,
    },
    /// A reservation was requested while one is already active.
    ReservationActive,
    /// A file operation failed.
    File(String),
    /// A thread could not be spawned or joined.
    Thread(String),
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::OutOfMemory {
                requested,
                available,
            } => match available {
                Some(avail) => write!(
                    f,
                    "out of memory: requested {requested} bytes, {avail} available in reservation"
                ),
                None => write!(f, "out of memory: requested {requested} bytes"),
            },
            PlatformError::ReservationActive => {
                f.write_str("a memory reservation is already active")
            }
            PlatformError::File(msg) => write!(f, "file operation failed: {msg}"),
            PlatformError::Thread(msg) => write!(f, "thread operation failed: {msg}"),
        }
    }
}

impl std::error::Error for PlatformError {}

/// Convenience result alias for platform operations.
pub type Result<T> = std::result::Result<T, PlatformError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persona_display_names() {
        assert_eq!(Persona::User.to_string(), "user");
        assert_eq!(Persona::Kernel.to_string(), "kernel");
    }

    #[test]
    fn persona_default_is_user() {
        assert_eq!(Persona::default(), Persona::User);
    }

    #[test]
    fn error_display_is_lowercase_and_informative() {
        let e = PlatformError::OutOfMemory {
            requested: 128,
            available: Some(64),
        };
        let msg = e.to_string();
        assert!(msg.contains("128"));
        assert!(msg.contains("64"));
        assert!(msg.starts_with("out of memory"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlatformError>();
    }
}
