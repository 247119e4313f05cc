//! Metric label sets and the sharded, thread-shared registry.
//!
//! Every [`MetricsRegistry`] cell is keyed by a metric name and a
//! [`Labels`] set (a sorted key→value map); the empty set
//! ([`Labels::none`]) is how run-global, unattributed metrics — the
//! whole trace layer — are recorded.
//!
//! Workers never contend on one registry mutex: [`SharedRegistry`]
//! shards one [`MetricsRegistry`] by thread, each worker stamps its
//! own shard, and scrapes merge all shards on the (rare) read path.
//!
//! ## Label schema
//!
//! Label keys are lowercase identifiers owned by the emitting
//! subsystem. The daemon stamps:
//!
//! * `tenant` — the admission-layer tenant name (`_server` for
//!   daemon-internal work with no tenant attribution)
//! * `phase` — a span-name prefix (`parse`, `wf`, `translate`, `exec`,
//!   `pre`, `body`, `post`, `branch`, `loop`)
//! * `backend` — the verification backend serving the request

use crate::json::Json;
use crate::metrics::MetricsRegistry;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// A sorted, immutable-once-built label set (`key → value`).
///
/// Ordering is lexicographic over the sorted pairs, so label sets are
/// usable as `BTreeMap` keys and render deterministically.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct Labels(BTreeMap<String, String>);

impl Labels {
    /// The empty label set: run-global metrics, including everything
    /// the trace layer records.
    pub fn none() -> Labels {
        Labels::default()
    }

    /// Builder: returns a copy with `key = value` set (replacing any
    /// previous value for `key`).
    #[must_use]
    pub fn with(mut self, key: &str, value: &str) -> Labels {
        self.0.insert(key.to_string(), value.to_string());
        self
    }

    /// The value of one label, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// True when no labels are set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// All `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The label set as a JSON object (`{"tenant":"acme"}`).
    pub fn to_json(&self) -> Json {
        Json::obj(self.iter().map(|(k, v)| (k, v.into())))
    }
}

/// A lock-cheap shared handle over a [`MetricsRegistry`].
///
/// Writers stamp the shard owned by their thread (shard = hash of
/// `ThreadId` mod shard count), so concurrent workers contend only
/// when two threads hash to the same shard — never on one global
/// mutex. Reads ([`SharedRegistry::snapshot`]) merge every shard;
/// scrapes are rare, so the read path pays the full cost.
#[derive(Debug)]
pub struct SharedRegistry {
    shards: Vec<Mutex<MetricsRegistry>>,
}

impl Default for SharedRegistry {
    fn default() -> SharedRegistry {
        SharedRegistry::new(8)
    }
}

impl SharedRegistry {
    /// A registry with `shards` independent write shards (min 1).
    pub fn new(shards: usize) -> SharedRegistry {
        SharedRegistry {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(MetricsRegistry::new()))
                .collect(),
        }
    }

    fn shard(&self) -> &Mutex<MetricsRegistry> {
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        let i = (hasher.finish() as usize) % self.shards.len();
        &self.shards[i]
    }

    fn with_shard<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        let mut guard = self
            .shard()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }

    /// Adds `delta` to the `(name, labels)` counter in this thread's
    /// shard.
    pub fn add(&self, name: &str, labels: &Labels, delta: u64) {
        self.with_shard(|r| r.add(name, labels, delta));
    }

    /// Records one histogram sample into this thread's shard.
    pub fn record(&self, name: &str, labels: &Labels, value: u64) {
        self.with_shard(|r| r.record(name, labels, value));
    }

    /// Merges a whole registry into this thread's shard (how a worker
    /// flushes per-request metrics in one lock acquisition).
    pub fn merge(&self, other: &MetricsRegistry) {
        self.with_shard(|r| r.merge(other));
    }

    /// Merge-on-read: folds every shard into one point-in-time
    /// registry. Shards are locked one at a time, so a snapshot
    /// overlapping concurrent writes is per-shard (not globally)
    /// atomic — fine for monitoring, by design.
    pub fn snapshot(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for shard in &self.shards {
            let guard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            out.merge(&guard);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn t(name: &str) -> Labels {
        Labels::none().with("tenant", name)
    }

    #[test]
    fn shared_registry_merges_across_threads() {
        let shared = Arc::new(SharedRegistry::new(4));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    s.add("req", &t("a"), 1);
                    s.record("lat", &t("a"), 5);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = shared.snapshot();
        assert_eq!(snap.counter("req", &t("a")), 800);
        assert_eq!(snap.histogram("lat", &t("a")).unwrap().count, 800);
    }
}
