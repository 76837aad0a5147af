//! Soundness check of the quiet-unit gates.
//!
//! A unit that declines its tick (an idle streamer or lane here, the
//! drained FPU subsystem and the shared port's relay and arbiter in
//! `issr-snitch`) claims the tick body would have changed nothing.
//! Each gate calls [`assert_no_op`] under `if cfg!(test)`: wherever a
//! gate fires, every unit test of the crate that owns it runs the body
//! in its place and requires exactly that, and no other build contains
//! the call.

/// Runs `body` on `unit` and asserts the unit's `Debug` text did not
/// change.
///
/// # Panics
/// Panics if `body` changed anything `Debug` shows: the gate in front
/// of it declined a tick that acts.
pub fn assert_no_op<U: std::fmt::Debug>(gate: &str, mut unit: U, body: impl FnOnce(&mut U)) {
    let before = format!("{unit:?}");
    body(&mut unit);
    assert_eq!(before, format!("{unit:?}"), "the {gate} gate declined a tick that acts");
    // gate-allow: called under `cfg!(test)` only
}
