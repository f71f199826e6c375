//! Feature-gated fault injection for robustness testing.
//!
//! Compiled only with the `faults` feature (test builds enable it via a
//! dev-dependency; release builds never carry the hooks). Tests arm a
//! named injection point with an action and a shot count; the server's
//! request path calls [`check`] at those points and suffers the armed
//! fault. Points currently wired:
//!
//! - `"handle.start"` — start of the request core's compute for a routed
//!   view, query or update, on the worker that runs it;
//! - `"process.request"` — immediately before the server is invoked for
//!   that request;
//! - `"respond.write"` — immediately before the success response is
//!   rendered;
//! - `"view.compute"` — in a view miss, once it holds the revision its
//!   probe keyed and before that revision is parsed (on first use) and
//!   labeled; no repository guard is held there;
//! - `"update.publish"` — in an update, after the new revision and every
//!   patched view are rendered and before the repository's write side is
//!   taken to publish them (readers still see the old revision);
//! - `"update.install"` — in an update's exclusive section, after the
//!   repository's write side is taken and before the new revision's
//!   `Arc` is swapped in.
//!
//! Two arming modes:
//!
//! - [`arm`] fires deterministically for the next `times` hits — for
//!   pinpoint scenario tests;
//! - [`arm_probabilistic`] fires each hit with a fixed probability from
//!   a seeded xorshift64* stream — for randomized chaos soaks. The
//!   stream is deterministic per seed, so a failing soak replays
//!   exactly.
//!
//! Arming is process-global, so tests that use it must not run
//! concurrently with each other or with anything else that sends
//! requests: keep all fault scenarios in one `#[test]` in a test binary
//! of its own (`tests/server_faults.rs`, `tests/chaos_storm.rs`).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What an armed injection point does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the point (exercises panic isolation).
    Panic,
    /// Sleep this many milliseconds (exercises timeouts/backpressure).
    SleepMs(u64),
    /// Abandon the connection without writing a response (exercises
    /// client-side handling of mid-stream disconnects).
    Disconnect,
    /// Sleep a uniformly random duration in `[min, max]` milliseconds,
    /// drawn from the armed point's seeded stream (exercises latency
    /// variance: deadline races, sojourn spikes, admission control).
    JitterMs(u64, u64),
}

/// One armed injection point.
struct Armed {
    action: FaultAction,
    /// Hits left before the point disarms itself; `u32::MAX` never
    /// exhausts (probabilistic soaks run until cleared).
    remaining: u32,
    /// Firing probability in parts per million (1_000_000 = always).
    per_million: u32,
    /// xorshift64* state for probability rolls and jitter draws.
    rng: u64,
}

fn registry() -> &'static Mutex<HashMap<&'static str, Armed>> {
    static REG: OnceLock<Mutex<HashMap<&'static str, Armed>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Arms `point` to fire `action` the next `times` times it is reached.
pub fn arm(point: &'static str, action: FaultAction, times: u32) {
    if let Ok(mut reg) = registry().lock() {
        reg.insert(point, Armed { action, remaining: times, per_million: 1_000_000, rng: 1 });
    }
}

/// Arms `point` to fire `action` with probability `per_million` /
/// 1 000 000 on each hit, forever (until [`disarm`]/[`clear`]). The
/// seeded stream makes a chaos run reproducible: the same seed and the
/// same hit sequence fire the same faults.
pub fn arm_probabilistic(point: &'static str, action: FaultAction, per_million: u32, seed: u64) {
    if let Ok(mut reg) = registry().lock() {
        reg.insert(
            point,
            Armed {
                action,
                remaining: u32::MAX,
                per_million: per_million.min(1_000_000),
                // xorshift must never be seeded with zero (it would stick).
                rng: seed | 1,
            },
        );
    }
}

/// Whether `point` is armed. A point armed for a number of shots disarms
/// itself as the last one fires, so a test can wait on this for a
/// request to reach a stall.
pub fn armed(point: &str) -> bool {
    registry().lock().is_ok_and(|reg| reg.contains_key(point))
}

/// Disarms one point.
pub fn disarm(point: &str) {
    if let Ok(mut reg) = registry().lock() {
        reg.remove(point);
    }
}

/// Disarms everything.
pub fn clear() {
    if let Ok(mut reg) = registry().lock() {
        reg.clear();
    }
}

/// Called by the server at an injection point. Executes Panic/Sleep
/// inline; returns `true` when the caller should drop the connection.
pub(crate) fn check(point: &str) -> bool {
    let action = {
        let Ok(mut reg) = registry().lock() else { return false };
        match reg.get_mut(point) {
            Some(armed) => {
                let fires = armed.per_million >= 1_000_000
                    || (xorshift(&mut armed.rng) % 1_000_000) < u64::from(armed.per_million);
                if !fires {
                    None
                } else {
                    let a = match armed.action {
                        // Resolve the jitter draw while we hold the state.
                        FaultAction::JitterMs(min, max) => {
                            let span = max.saturating_sub(min).saturating_add(1);
                            FaultAction::SleepMs(min + xorshift(&mut armed.rng) % span)
                        }
                        other => other,
                    };
                    if armed.remaining != u32::MAX {
                        armed.remaining -= 1;
                        if armed.remaining == 0 {
                            reg.remove(point);
                        }
                    }
                    Some(a)
                }
            }
            None => None,
        }
    };
    match action {
        Some(FaultAction::Panic) => panic!("injected fault at {point}"),
        Some(FaultAction::SleepMs(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            false
        }
        Some(FaultAction::Disconnect) => true,
        // JitterMs is rewritten to SleepMs above.
        Some(FaultAction::JitterMs(..)) | None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_points_fire_then_expire() {
        clear();
        arm("t.sleep", FaultAction::SleepMs(1), 2);
        assert!(!check("t.sleep"));
        assert!(!check("t.sleep"));
        // Exhausted after two shots.
        assert!(!check("t.sleep"));
        arm("t.disc", FaultAction::Disconnect, 1);
        assert!(armed("t.disc"));
        assert!(check("t.disc"));
        assert!(!armed("t.disc"), "the last shot disarms the point");
        assert!(!check("t.disc"));
        arm("t.gone", FaultAction::Disconnect, 1);
        disarm("t.gone");
        assert!(!check("t.gone"));
        clear();
    }

    #[test]
    fn panic_action_panics() {
        arm("t.panic", FaultAction::Panic, 1);
        let r = std::panic::catch_unwind(|| check("t.panic"));
        assert!(r.is_err());
    }

    #[test]
    fn probabilistic_arming_is_seeded_and_roughly_calibrated() {
        clear();
        // ~50% disconnects over 400 hits: comfortably inside [100, 300].
        arm_probabilistic("t.prob", FaultAction::Disconnect, 500_000, 42);
        let fired: u32 = (0..400).map(|_| u32::from(check("t.prob"))).sum();
        assert!((100..=300).contains(&fired), "fired {fired}/400");
        disarm("t.prob");

        // The same seed replays the same firing pattern.
        let pattern = |seed| {
            arm_probabilistic("t.replay", FaultAction::Disconnect, 250_000, seed);
            let p: Vec<bool> = (0..64).map(|_| check("t.replay")).collect();
            disarm("t.replay");
            p
        };
        assert_eq!(pattern(7), pattern(7));
        assert_ne!(pattern(7), pattern(8), "different seeds diverge");

        // Zero probability never fires.
        arm_probabilistic("t.never", FaultAction::Panic, 0, 3);
        for _ in 0..100 {
            assert!(!check("t.never"));
        }
        clear();
    }

    #[test]
    fn jitter_sleeps_within_bounds() {
        clear();
        arm("t.jit", FaultAction::JitterMs(0, 2), 8);
        let t = std::time::Instant::now();
        for _ in 0..8 {
            assert!(!check("t.jit"));
        }
        // 8 draws in [0, 2] ms must land well under a second.
        assert!(t.elapsed() < Duration::from_secs(1));
        clear();
    }
}
