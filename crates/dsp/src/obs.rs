//! Byte-stable JSON export of [`ht_obs`] registry snapshots.
//!
//! `ht-obs` is a `std`-only leaf crate (every layer of the workspace links
//! it, so it cannot depend on anything), which is why its serialization
//! lives here, next to the [`crate::json`] machinery it uses. Snapshots
//! iterate name-sorted maps and [`crate::json::Json`] objects preserve
//! insertion order, so serializing the same snapshot twice produces
//! byte-identical text — the same contract experiment reports rely on.

use crate::json::{Json, ToJson};
use ht_obs::{HistSnapshot, RegistrySnapshot};

impl ToJson for HistSnapshot {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("count", self.count)
            .set("mean_ns", self.mean_ns)
            .set("p50_ns", self.p50_ns)
            .set("p95_ns", self.p95_ns)
            .set("p99_ns", self.p99_ns)
            .set("min_ns", self.min_ns)
            .set("max_ns", self.max_ns)
    }
}

impl ToJson for RegistrySnapshot {
    fn to_json(&self) -> Json {
        let mut spans = Json::obj();
        for (name, h) in &self.spans {
            spans = spans.set(name, h.to_json());
        }
        let mut counters = Json::obj();
        for (name, v) in &self.counters {
            counters = counters.set(name, *v);
        }
        Json::obj().set("spans", spans).set("counters", counters)
    }
}

/// Serializes a registry snapshot as a pretty-printed observability report,
/// ready to drop next to an experiment's result JSON.
pub fn obs_report(snapshot: &RegistrySnapshot) -> String {
    snapshot.to_json().pretty() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> RegistrySnapshot {
        RegistrySnapshot {
            counters: vec![("par.tasks".into(), 42)],
            spans: vec![(
                "wake.denoise".into(),
                HistSnapshot {
                    count: 3,
                    mean_ns: 1500.0,
                    p50_ns: 1400,
                    p95_ns: 2000,
                    p99_ns: 2000,
                    min_ns: 1200,
                    max_ns: 2000,
                },
            )],
        }
    }

    #[test]
    fn report_serialization_is_byte_stable() {
        let snap = sample_snapshot();
        assert_eq!(obs_report(&snap), obs_report(&snap.clone()));
        let v = snap.to_json();
        assert_eq!(
            v.get("spans")
                .and_then(|s| s.get("wake.denoise"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("par.tasks"))
                .and_then(Json::as_u64),
            Some(42)
        );
    }

    #[test]
    fn report_parses_back_as_json() {
        let text = obs_report(&sample_snapshot());
        let parsed = Json::parse(&text).expect("valid JSON");
        assert!(parsed.get("spans").is_some());
        assert!(parsed.get("counters").is_some());
    }
}
