//! The one way a thread starts: named, on the virtual clock it is given.
//!
//! A sentinel process of the paper is a thread here (DESIGN §2), and so is
//! an executor worker and a benchmark client. Each starts through
//! [`spawn`], so a thread's name and its clock are set in one place, the
//! place a scheduler of the tree's threads would hook.

use std::thread::JoinHandle;

use crate::clock::{self, SimTime};

/// Starts a thread named `name` that runs `body` under `clock`: a virtual
/// clock at that time, or none at all (see [`clock::enter`]). Pass
/// [`clock::current`] to carry the caller's time over. The body's return
/// value, or its panic, reaches [`JoinHandle::join`]; dropping the handle
/// detaches the thread. Panics if the operating system refuses a thread.
pub fn spawn<T, F>(name: String, clock: Option<SimTime>, body: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let _clock = clock::enter(clock);
            body()
        })
        .expect("spawn thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_starts_at_the_time_it_is_given() {
        let start = spawn("at".into(), Some(7), || (clock::is_active(), clock::now()));
        assert_eq!(start.join().unwrap(), (true, 7));
    }

    #[test]
    fn no_clock_leaves_the_thread_without_one() {
        let _parent = clock::install(9);
        assert!(!spawn("none".into(), None, clock::is_active).join().unwrap());
    }

    #[test]
    fn the_current_clock_carries_the_parent_s_time() {
        let _parent = clock::install(100);
        clock::advance(5);
        let child = spawn("child".into(), clock::current(), || {
            clock::advance(1);
            clock::now()
        });
        assert_eq!(child.join().unwrap(), 106);
        assert_eq!(clock::now(), 105, "the child's charges stay its own");
    }

    #[test]
    fn the_thread_carries_its_name() {
        let name = spawn("afs-named".into(), None, || {
            std::thread::current().name().map(str::to_owned)
        });
        assert_eq!(name.join().unwrap().as_deref(), Some("afs-named"));
    }

    #[test]
    fn a_panic_reaches_join() {
        let failed = spawn("panics".into(), None, || -> u8 { panic!("body fault") });
        let payload = failed.join().unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"body fault"));
    }
}
