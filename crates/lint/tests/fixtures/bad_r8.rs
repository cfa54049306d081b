//! Fixture: import of a crate that is neither a workspace member nor
//! vendored (retired R8; rustc refuses the unresolved import).

use rayon::prelude::*;

/// Would parallelize, if the dependency existed.
pub fn noop() {}
