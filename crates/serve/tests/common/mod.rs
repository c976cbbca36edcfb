//! What the suites that spawn the daemon binary share.

use std::ops::{Deref, DerefMut};
use std::process::Child;

/// A spawned daemon that is killed and reaped when dropped: a test that
/// fails, and so unwinds, leaves no orphan daemon holding the test
/// harness's output pipes open.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        // An error here means the child is already gone; a panic would
        // abort a test that is already unwinding.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Deref for Reaped {
    type Target = Child;

    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for Reaped {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}
