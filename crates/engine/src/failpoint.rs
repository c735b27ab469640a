//! Env/config-gated failpoints for fault-injection testing
//! (docs/ROBUSTNESS.md, "Failpoint catalog").
//!
//! A failpoint is a named site in production code where a chaos test can
//! inject a fault — a deliberate panic, a stall, an aborted write —
//! without a special build. Sites are compiled in unconditionally but
//! cost **one relaxed atomic load** when nothing is armed, so the hot
//! path pays nothing in normal operation.
//!
//! # Arming
//!
//! Programmatically ([`arm`] / [`disarm`] / [`reset`]), or at process
//! start via the `FACTORHD_FAILPOINTS` environment variable — a
//! comma-separated list of `name=mode` entries:
//!
//! ```text
//! FACTORHD_FAILPOINTS="engine/op_panic=tag:3,serve/batcher_stall=sleep:50"
//! ```
//!
//! Modes: `always`, `once`, `nth:K` (fires on the K-th hit, 1-based),
//! `tag:V` (fires when the site's tag equals `V`), `sleep:MS` (the site
//! sleeps `MS` milliseconds). Unparseable entries are ignored — a typo
//! in the env var must never take down a server.
//!
//! # Known sites
//!
//! | name | effect when fired |
//! |------|-------------------|
//! | `engine/op_panic` | panics inside per-op batch execution (contained into [`crate::EngineError::OpPanicked`]); tag = [`crate::AnyOp::chaos_tag`] |
//! | `engine/artifact_partial_write` | `save_model` writes a torn temp file and errors before the atomic rename, simulating a crash mid-save |
//! | `serve/batcher_stall` | the batcher sleeps before dispatching, letting chaos tests fill the admission queue deterministically |

use std::collections::HashMap;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed failpoint does when its site is hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// Fire on every hit.
    Always,
    /// Fire on the first hit, then disarm.
    Once,
    /// Fire on the K-th hit (1-based), then disarm.
    Nth(u64),
    /// Fire only on hits whose site tag equals this value (the tag is
    /// site-specific data, e.g. [`crate::AnyOp::chaos_tag`]).
    Tag(u64),
    /// The site sleeps this long on every hit (used by stall sites;
    /// trigger sites treat it as not firing).
    Sleep(Duration),
}

struct Entry {
    mode: FailMode,
    hits: u64,
}

struct Registry {
    points: std::sync::LazyLock<Mutex<HashMap<String, Entry>>>,
    /// Number of armed failpoints, or -1 before the env var has been
    /// parsed. The fast path is a single relaxed load of this counter.
    armed: AtomicIsize,
}

static REGISTRY: Registry = Registry {
    points: std::sync::LazyLock::new(|| Mutex::new(HashMap::new())),
    armed: AtomicIsize::new(-1),
};

/// Recovers from a poisoned registry lock: the registry holds plain
/// bookkeeping data that stays structurally valid even if a panicking
/// thread held the lock, and failpoints must keep working mid-chaos.
fn points() -> std::sync::MutexGuard<'static, HashMap<String, Entry>> {
    REGISTRY
        .points
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn ensure_init() {
    if REGISTRY.armed.load(Ordering::Relaxed) >= 0 {
        return;
    }
    let mut map = points();
    // Re-check under the lock so only one thread parses the env var.
    if REGISTRY.armed.load(Ordering::Relaxed) >= 0 {
        return;
    }
    if let Ok(spec) = std::env::var("FACTORHD_FAILPOINTS") {
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((name, mode)) = entry.split_once('=') else {
                continue;
            };
            if let Some(mode) = parse_mode(mode) {
                map.insert(name.trim().to_owned(), Entry { mode, hits: 0 });
            }
        }
    }
    REGISTRY.armed.store(map.len() as isize, Ordering::Release);
}

fn parse_mode(mode: &str) -> Option<FailMode> {
    let mode = mode.trim();
    match mode {
        "always" => Some(FailMode::Always),
        "once" => Some(FailMode::Once),
        _ => {
            let (kind, value) = mode.split_once(':')?;
            let value: u64 = value.trim().parse().ok()?;
            match kind.trim() {
                "nth" => Some(FailMode::Nth(value)),
                "tag" => Some(FailMode::Tag(value)),
                "sleep" => Some(FailMode::Sleep(Duration::from_millis(value))),
                _ => None,
            }
        }
    }
}

/// Whether any failpoint is armed — the cheap guard a site checks before
/// doing per-item work (one relaxed atomic load when the answer is no).
pub fn armed() -> bool {
    let count = REGISTRY.armed.load(Ordering::Relaxed);
    if count > 0 {
        return true;
    }
    if count == 0 {
        return false;
    }
    ensure_init();
    REGISTRY.armed.load(Ordering::Relaxed) > 0
}

/// Arms `name` with `mode`, replacing any previous arming.
pub fn arm(name: &str, mode: FailMode) {
    ensure_init();
    let mut map = points();
    if map
        .insert(name.to_owned(), Entry { mode, hits: 0 })
        .is_none()
    {
        REGISTRY.armed.fetch_add(1, Ordering::Release);
    }
}

/// Disarms `name`. A no-op if it was not armed.
pub fn disarm(name: &str) {
    ensure_init();
    if points().remove(name).is_some() {
        REGISTRY.armed.fetch_sub(1, Ordering::Release);
    }
}

/// Disarms every failpoint (including env-armed ones).
pub fn reset() {
    ensure_init();
    let mut map = points();
    map.clear();
    REGISTRY.armed.store(0, Ordering::Release);
}

fn fire(name: &str, tag: Option<u64>) -> Option<FailMode> {
    if !armed() {
        return None;
    }
    let mut map = points();
    let entry = map.get_mut(name)?;
    entry.hits += 1;
    match entry.mode {
        FailMode::Always => Some(FailMode::Always),
        FailMode::Once => {
            map.remove(name);
            REGISTRY.armed.fetch_sub(1, Ordering::Release);
            Some(FailMode::Once)
        }
        FailMode::Nth(n) => {
            if entry.hits == n {
                map.remove(name);
                REGISTRY.armed.fetch_sub(1, Ordering::Release);
                Some(FailMode::Nth(n))
            } else {
                None
            }
        }
        FailMode::Tag(v) => (tag == Some(v)).then_some(FailMode::Tag(v)),
        FailMode::Sleep(d) => Some(FailMode::Sleep(d)),
    }
}

/// Whether the trigger site `name` should fire on this hit. Sleep-armed
/// points never "fire" a trigger (they only stall [`sleep`] sites).
pub fn hit(name: &str) -> bool {
    !matches!(fire(name, None), None | Some(FailMode::Sleep(_)))
}

/// Like [`hit`] for tag-matched sites: a `Tag(v)`-armed point fires only
/// when `tag == v`; every other mode behaves as in [`hit`].
pub fn hit_tag(name: &str, tag: u64) -> bool {
    !matches!(fire(name, Some(tag)), None | Some(FailMode::Sleep(_)))
}

/// Stall site: sleeps for the armed duration when `name` is armed as
/// [`FailMode::Sleep`]; otherwise does nothing.
pub fn sleep(name: &str) {
    if let Some(FailMode::Sleep(duration)) = fire(name, None) {
        std::thread::sleep(duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Failpoint state is process-global; these tests use distinct names
    // so they stay independent under the parallel test runner.

    #[test]
    fn unarmed_points_never_fire() {
        assert!(!hit("test/never-armed"));
        assert!(!hit_tag("test/never-armed", 7));
        sleep("test/never-armed"); // returns immediately
    }

    #[test]
    fn always_fires_until_disarmed() {
        arm("test/always", FailMode::Always);
        assert!(hit("test/always"));
        assert!(hit("test/always"));
        disarm("test/always");
        assert!(!hit("test/always"));
    }

    #[test]
    fn once_fires_exactly_once() {
        arm("test/once", FailMode::Once);
        assert!(hit("test/once"));
        assert!(!hit("test/once"));
    }

    #[test]
    fn nth_fires_on_the_nth_hit_only() {
        arm("test/nth", FailMode::Nth(3));
        assert!(!hit("test/nth"));
        assert!(!hit("test/nth"));
        assert!(hit("test/nth"));
        assert!(!hit("test/nth"));
    }

    #[test]
    fn tag_matches_site_data() {
        arm("test/tag", FailMode::Tag(5));
        assert!(!hit_tag("test/tag", 4));
        assert!(hit_tag("test/tag", 5));
        assert!(hit_tag("test/tag", 5), "tag mode stays armed");
        assert!(!hit("test/tag"), "untagged hits never match a tag");
        disarm("test/tag");
    }

    #[test]
    fn sleep_mode_does_not_trigger() {
        arm("test/sleep", FailMode::Sleep(Duration::from_millis(1)));
        assert!(!hit("test/sleep"));
        let start = std::time::Instant::now();
        sleep("test/sleep");
        assert!(start.elapsed() >= Duration::from_millis(1));
        disarm("test/sleep");
    }

    #[test]
    fn mode_parsing_accepts_the_documented_grammar() {
        assert_eq!(parse_mode("always"), Some(FailMode::Always));
        assert_eq!(parse_mode(" once "), Some(FailMode::Once));
        assert_eq!(parse_mode("nth:2"), Some(FailMode::Nth(2)));
        assert_eq!(parse_mode("tag:9"), Some(FailMode::Tag(9)));
        assert_eq!(
            parse_mode("sleep:50"),
            Some(FailMode::Sleep(Duration::from_millis(50)))
        );
        assert_eq!(parse_mode("bogus"), None);
        assert_eq!(parse_mode("nth:x"), None);
    }
}
