//! On-disk cache for rendered features.
//!
//! Rendering the full Table II datasets takes tens of minutes on one core,
//! so extracted feature vectors are cached under `target/ht_cache/`. Each
//! cache entry is two files:
//!
//! * `<name>.meta.json` — the [`CaptureSpec`]s plus per-record vector widths,
//! * `<name>.f64` — all vectors concatenated as little-endian `f64`s.

use ht_datagen::CaptureSpec;
use ht_dsp::json::{field, FromJson, Json, JsonError, ToJson};
use std::io::{Read, Write};
use std::path::PathBuf;

/// One cached record: the capture description and its extracted vector
/// (orientation features or a prepared liveness input).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// What was rendered.
    pub spec: CaptureSpec,
    /// The extracted vector.
    pub vector: Vec<f64>,
}
struct Meta {
    version: u32,
    specs: Vec<CaptureSpec>,
    widths: Vec<u32>,
}

impl ToJson for Meta {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("version", self.version)
            .set("specs", self.specs.to_json())
            .set("widths", self.widths.to_json())
    }
}

impl FromJson for Meta {
    fn from_json(v: &Json) -> Result<Meta, JsonError> {
        Ok(Meta {
            version: field(v, "version")?,
            specs: field(v, "specs")?,
            widths: field(v, "widths")?,
        })
    }
}

/// Bump when feature extraction or the simulator changes incompatibly.
/// v5: planned FFT engine (table twiddles) shifts feature bit patterns.
/// v6: adaptive directivity flush — short captures (< one 32k segment)
/// transform at the next power of two instead of the full segment, which
/// moves their directivity-band feature values.
/// v7: GCC-PHAT accumulates whitened cross spectra and inverts the sums,
/// which moves the reverberation features in their last bits.
/// v8: the frame analyzer whitens each channel once (`√(re² + im²)` per
/// channel instead of `hypot` per pair), which moves the reverberation
/// features in their last bits again.
const CACHE_VERSION: u32 = 8;

/// The cache directory (`target/ht_cache`, created on demand).
pub fn cache_dir() -> PathBuf {
    let mut p = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    p.push("ht_cache");
    p
}

fn paths(name: &str) -> (PathBuf, PathBuf) {
    let dir = cache_dir();
    (
        dir.join(format!("{name}.meta.json")),
        dir.join(format!("{name}.f64")),
    )
}

/// Loads a cache entry, or `None` when missing/outdated/corrupt.
pub fn load(name: &str) -> Option<Vec<Record>> {
    let (meta_path, data_path) = paths(name);
    let text = std::fs::read_to_string(meta_path).ok()?;
    let meta = Meta::from_json(&Json::parse(&text).ok()?).ok()?;
    if meta.version != CACHE_VERSION || meta.specs.len() != meta.widths.len() {
        return None;
    }
    let mut raw = Vec::new();
    std::fs::File::open(data_path)
        .ok()?
        .read_to_end(&mut raw)
        .ok()?;
    let total: usize = meta.widths.iter().map(|&w| w as usize).sum();
    if raw.len() != total * 8 {
        return None;
    }
    let mut records = Vec::with_capacity(meta.specs.len());
    let mut off = 0usize;
    for (spec, &w) in meta.specs.into_iter().zip(meta.widths.iter()) {
        let w = w as usize;
        let mut vector = Vec::with_capacity(w);
        for k in 0..w {
            let b: [u8; 8] = raw[(off + k) * 8..(off + k + 1) * 8]
                .try_into()
                .expect("slice is 8 bytes");
            vector.push(f64::from_le_bytes(b));
        }
        off += w;
        records.push(Record { spec, vector });
    }
    Some(records)
}

/// Stores a cache entry (best effort: IO errors are reported, not fatal).
///
/// # Errors
///
/// Returns an IO error string when the cache directory is not writable.
pub fn store(name: &str, records: &[Record]) -> Result<(), String> {
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let (meta_path, data_path) = paths(name);
    let meta = Meta {
        version: CACHE_VERSION,
        specs: records.iter().map(|r| r.spec).collect(),
        widths: records.iter().map(|r| r.vector.len() as u32).collect(),
    };
    std::fs::write(&meta_path, meta.to_json().dump()).map_err(|e| e.to_string())?;
    let mut f = std::fs::File::create(&data_path).map_err(|e| e.to_string())?;
    let mut buf = Vec::with_capacity(records.iter().map(|r| r.vector.len() * 8).sum());
    for r in records {
        for v in &r.vector {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    f.write_all(&buf).map_err(|e| e.to_string())?;
    Ok(())
}

/// Loads a cache entry or computes and stores it.
pub fn load_or_compute(name: &str, compute: impl FnOnce() -> Vec<Record>) -> Vec<Record> {
    if let Some(records) = load(name) {
        return records;
    }
    let records = compute();
    if let Err(e) = store(name, &records) {
        eprintln!("warning: could not write cache `{name}`: {e}");
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record {
                spec: CaptureSpec::baseline(i as u64),
                vector: (0..3 + i).map(|k| k as f64 * 0.5).collect(),
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_records() {
        let name = "test_round_trip";
        let rs = records(4);
        store(name, &rs).unwrap();
        let back = load(name).unwrap();
        assert_eq!(back, rs);
        // Cleanup so repeated test runs stay hermetic.
        let (m, d) = paths(name);
        let _ = std::fs::remove_file(m);
        let _ = std::fs::remove_file(d);
    }

    #[test]
    fn missing_entry_is_none() {
        assert!(load("definitely_not_cached").is_none());
    }

    #[test]
    fn load_or_compute_computes_once_then_loads() {
        let name = "test_loc";
        let (m, d) = paths(name);
        let _ = std::fs::remove_file(&m);
        let _ = std::fs::remove_file(&d);
        let mut calls = 0;
        let a = load_or_compute(name, || {
            calls += 1;
            records(2)
        });
        assert_eq!(calls, 1);
        let b = load_or_compute(name, || {
            calls += 1;
            records(2)
        });
        assert_eq!(calls, 1, "second call must hit the cache");
        assert_eq!(a, b);
        let _ = std::fs::remove_file(m);
        let _ = std::fs::remove_file(d);
    }

    #[test]
    fn corrupt_data_is_rejected() {
        let name = "test_corrupt";
        store(name, &records(2)).unwrap();
        let (_, d) = paths(name);
        std::fs::write(&d, b"short").unwrap();
        assert!(load(name).is_none());
        let (m, _) = paths(name);
        let _ = std::fs::remove_file(m);
        let _ = std::fs::remove_file(d);
    }
}
