//! Fixture: leftover stub/debug macros (retired R7; the workspace lint
//! table now fires `clippy::{todo, dbg_macro, unimplemented}`).

/// Unfinished branch.
pub fn later() {
    todo!()
}

/// Debug print left behind.
pub fn noisy(x: u32) -> u32 {
    dbg!(x)
}

/// Explicitly unimplemented arm.
pub fn never() {
    unimplemented!()
}
