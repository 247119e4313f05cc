//! Metric label sets.
//!
//! Every [`crate::MetricsRegistry`] cell is keyed by a metric name and
//! a [`Labels`] set (a sorted key→value map); the empty set
//! ([`Labels::none`]) keys the daemon-wide cells that belong to no
//! tenant or phase.
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
use std::collections::BTreeMap;

/// A sorted, immutable-once-built label set (`key → value`).
///
/// Ordering is lexicographic over the sorted pairs, so label sets are
/// usable as `BTreeMap` keys and render deterministically.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct Labels(BTreeMap<String, String>);

impl Labels {
    /// The empty label set: daemon-wide cells with no attribution.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_replaces_a_value_and_keeps_keys_sorted() {
        let l = Labels::none()
            .with("tenant", "b")
            .with("phase", "exec")
            .with("tenant", "a");
        assert_eq!(
            l.iter().collect::<Vec<_>>(),
            [("phase", "exec"), ("tenant", "a")]
        );
        assert_eq!(l.get("tenant"), Some("a"));
        assert_eq!(l.get("backend"), None);
        assert!(!l.is_empty() && Labels::none().is_empty());
    }

    #[test]
    fn to_json_renders_a_sorted_object() {
        let l = Labels::none().with("tenant", "acme").with("phase", "exec");
        assert_eq!(l.to_json().render(), r#"{"phase":"exec","tenant":"acme"}"#);
        assert_eq!(Labels::none().to_json().render(), "{}");
    }

    #[test]
    fn label_sets_order_by_their_sorted_pairs() {
        let a1 = Labels::none().with("a", "1");
        let a2 = Labels::none().with("a", "2");
        let b0 = Labels::none().with("b", "0");
        assert!(Labels::none() < a1);
        assert!(a1 < a2 && a2 < b0);
        assert_eq!(a1.clone().with("b", "0"), b0.with("a", "1"));
    }
}
