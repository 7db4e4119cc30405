//! Poison-recovering lock acquisition — the only way the workspace takes a
//! `Mutex` or `RwLock` (`clippy.toml` disallows the raw methods).
//!
//! A guard poisoned by a panicking thread is adopted, not unwrapped: one
//! panicking test or job must not cascade into every later user of a
//! shared table. That is only sound where every critical section leaves
//! the data valid at each step; a site that instead wants the panic to
//! propagate calls the raw method under `#[expect(clippy::disallowed_methods)]`
//! and says why.

#![expect(
    clippy::disallowed_methods,
    reason = "these are the poison-recovering wrappers the rule points callers at"
)]

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// `m.lock()`, adopting a poisoned guard.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `l.read()`, adopting a poisoned guard.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// `l.write()`, adopting a poisoned guard.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poison `l` the way a crashed sibling does: a thread panics while
    /// holding the guard `take` acquires.
    fn poison<'a, L: Sync, G>(l: &'a L, take: impl FnOnce(&'a L) -> G + Send) {
        let crashed = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = take(l);
                panic!("poison the lock");
            })
            .join()
        });
        assert!(crashed.is_err());
    }

    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let m = Mutex::new(7);
        poison(&m, |m| lock(m));
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
    }

    #[test]
    fn read_recovers_a_poisoned_rwlock() {
        let l = RwLock::new(7);
        poison(&l, |l| write(l));
        assert!(l.is_poisoned());
        assert_eq!(*read(&l), 7);
    }

    #[test]
    fn write_recovers_a_poisoned_rwlock() {
        let l = RwLock::new(7);
        poison(&l, |l| write(l));
        assert!(l.is_poisoned());
        *write(&l) += 1;
        assert_eq!(*read(&l), 8);
    }
}
