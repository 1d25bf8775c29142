//! On-disk cache for rendered features.
//!
//! Rendering the full Table II datasets takes minutes, so extracted feature
//! vectors are cached under `target/ht_cache/`. [`load_or_compute`] is the
//! only way in, and its caller's spec list is the key. Each cache entry is
//! two files:
//!
//! * `<name>.meta.json` — `CACHE_VERSION`, the record count, the
//!   per-record vector widths, and an FNV-1a fingerprint of the specs'
//!   JSON dumps (the dump the benchmark's render cache keys on too),
//! * `<name>.f64` — all vectors concatenated as little-endian `f64`s.
//!
//! The specs themselves are not stored: a hit pairs the stored vectors
//! with the caller's specs. A spec list edited under the same name misses
//! by itself; a change to the renderer or the extractors does not, and
//! bumps `CACHE_VERSION` instead.

use ht_datagen::CaptureSpec;
use ht_dsp::check::fnv1a;
use ht_dsp::json::{field, FromJson, Json, JsonError, ToJson};
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
    count: usize,
    fingerprint: u64,
    widths: Vec<u32>,
}

impl ToJson for Meta {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("version", self.version)
            .set("count", self.count)
            .set("fingerprint", self.fingerprint)
            .set("widths", self.widths.to_json())
    }
}

impl FromJson for Meta {
    fn from_json(v: &Json) -> Result<Meta, JsonError> {
        Ok(Meta {
            version: field(v, "version")?,
            count: field(v, "count")?,
            fingerprint: field(v, "fingerprint")?,
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

/// FNV-1a over the specs' JSON dumps, in order (dumped on ht-par's pool).
fn fingerprint(specs: &[CaptureSpec]) -> u64 {
    let dumps = ht_par::par_map(specs, |spec| spec.to_json().dump());
    fnv1a(dumps.concat().as_bytes())
}

/// The stored vectors of an entry keyed by `count` specs with this
/// `fingerprint`, or `None` when it is missing, outdated, keyed by other
/// specs or corrupt.
fn load(name: &str, count: usize, fingerprint: u64) -> Option<Vec<Vec<f64>>> {
    let (meta_path, data_path) = paths(name);
    let text = std::fs::read_to_string(meta_path).ok()?;
    let meta = Meta::from_json(&Json::parse(&text).ok()?).ok()?;
    if meta.version != CACHE_VERSION
        || meta.count != count
        || meta.widths.len() != count
        || meta.fingerprint != fingerprint
    {
        return None;
    }
    let raw = std::fs::read(data_path).ok()?;
    let total: usize = meta.widths.iter().map(|&w| w as usize).sum();
    if raw.len() != total * 8 {
        return None;
    }
    let mut values = raw
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("chunk is 8 bytes")));
    Some(
        meta.widths
            .iter()
            .map(|&w| values.by_ref().take(w as usize).collect())
            .collect(),
    )
}

/// Writes an entry.
fn store(name: &str, fingerprint: u64, vectors: &[Vec<f64>]) -> std::io::Result<()> {
    std::fs::create_dir_all(cache_dir())?;
    let (meta_path, data_path) = paths(name);
    let meta = Meta {
        version: CACHE_VERSION,
        count: vectors.len(),
        fingerprint,
        widths: vectors.iter().map(|v| v.len() as u32).collect(),
    };
    std::fs::write(meta_path, meta.to_json().dump())?;
    let bytes: Vec<u8> = vectors
        .iter()
        .flatten()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    std::fs::write(data_path, bytes)
}

/// The records of `specs`: the vectors cached under `name` when that entry
/// was stored for this spec list, else `extract(specs)` (one vector per
/// spec, in order), stored for the next call. A cache that cannot be
/// written is a warning, not an error.
pub fn load_or_compute(
    name: &str,
    specs: &[CaptureSpec],
    extract: impl FnOnce(&[CaptureSpec]) -> Vec<Vec<f64>>,
) -> Vec<Record> {
    let fingerprint = fingerprint(specs);
    let vectors = load(name, specs.len(), fingerprint).unwrap_or_else(|| {
        let vectors = extract(specs);
        assert_eq!(vectors.len(), specs.len(), "one vector per spec");
        if let Err(e) = store(name, fingerprint, &vectors) {
            eprintln!("warning: could not write cache `{name}`: {e}");
        }
        vectors
    });
    specs
        .iter()
        .zip(vectors)
        .map(|(&spec, vector)| Record { spec, vector })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_acoustics::noise::NoiseKind;
    use ht_datagen::SourceKind;
    use ht_speech::replay::SpeakerModel;
    use ht_speech::voice::VoiceProfile;

    fn specs(n: u64) -> Vec<CaptureSpec> {
        (0..n).map(CaptureSpec::baseline).collect()
    }

    /// Vectors of distinct widths whose bits a decimal round trip would
    /// not all keep: signed zero, a subnormal, a NaN payload, infinity.
    fn vectors(n: usize) -> Vec<Vec<f64>> {
        let odd = [
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::NEG_INFINITY,
            0.1 + 0.2,
        ];
        (0..n)
            .map(|i| (0..3 + i).map(|k| odd[(i + k) % odd.len()]).collect())
            .collect()
    }

    fn bits(records: &[Record]) -> Vec<Vec<u64>> {
        records
            .iter()
            .map(|r| r.vector.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Deletes an entry's files, so repeated test runs stay hermetic.
    fn remove(name: &str) {
        let (m, d) = paths(name);
        let _ = std::fs::remove_file(m);
        let _ = std::fs::remove_file(d);
    }

    #[test]
    fn round_trip_preserves_records() {
        let name = "test_round_trip";
        remove(name);
        let (specs, stored) = (specs(4), vectors(4));
        load_or_compute(name, &specs, |_| stored.clone());
        let hit = load_or_compute(name, &specs, |_| panic!("a hit extracts nothing"));
        let got: Vec<CaptureSpec> = hit.iter().map(|r| r.spec).collect();
        assert_eq!(got, specs, "a hit returns the caller's specs");
        let want: Vec<Vec<u64>> = stored
            .iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect();
        assert_eq!(bits(&hit), want, "and the stored vectors bit for bit");
        remove(name);
    }

    #[test]
    fn missing_entry_is_none() {
        assert!(load("definitely_not_cached", 1, fingerprint(&specs(1))).is_none());
    }

    #[test]
    fn load_or_compute_computes_once_then_loads() {
        let name = "test_loc";
        remove(name);
        let specs = specs(2);
        let mut calls = 0;
        let a = load_or_compute(name, &specs, |s| {
            calls += 1;
            vectors(s.len())
        });
        assert_eq!(calls, 1);
        let b = load_or_compute(name, &specs, |s| {
            calls += 1;
            vectors(s.len())
        });
        assert_eq!(calls, 1, "second call must hit the cache");
        assert_eq!(bits(&a), bits(&b));
        remove(name);
    }

    #[test]
    fn a_different_spec_list_under_the_same_name_computes_again() {
        let name = "test_rekey";
        remove(name);
        let old = specs(3);
        load_or_compute(name, &old, |s| vectors(s.len()));
        // An edited spec (same count) and a longer list both miss.
        let mut edited = old.clone();
        edited[1].angle_deg = 90.0;
        let longer = specs(4);
        for new in [edited, longer] {
            let mut calls = 0;
            let records = load_or_compute(name, &new, |s| {
                calls += 1;
                vec![vec![7.0]; s.len()]
            });
            assert_eq!(calls, 1, "a stale entry is rendered again");
            assert!(records.iter().all(|r| r.vector == [7.0]));
            let got: Vec<CaptureSpec> = records.iter().map(|r| r.spec).collect();
            assert_eq!(got, new);
        }
        remove(name);
    }

    #[test]
    fn corrupt_data_is_rejected() {
        let name = "test_corrupt";
        let specs = specs(2);
        let key = fingerprint(&specs);
        let (m, d) = paths(name);
        // A truncated data file.
        store(name, key, &vectors(2)).unwrap();
        let raw = std::fs::read(&d).unwrap();
        std::fs::write(&d, &raw[..raw.len() - 8]).unwrap();
        assert!(load(name, 2, key).is_none());
        // Widths that sum to more than the data file holds.
        store(name, key, &vectors(2)).unwrap();
        let meta = Meta {
            version: CACHE_VERSION,
            count: 2,
            fingerprint: key,
            widths: vec![3, 5],
        };
        std::fs::write(&m, meta.to_json().dump()).unwrap();
        assert!(load(name, 2, key).is_none());
        // A meta file that is not JSON.
        std::fs::write(&m, b"{\"version\": 8,").unwrap();
        assert!(load(name, 2, key).is_none());
        remove(name);
    }

    #[test]
    fn a_meta_file_that_stores_the_specs_is_a_miss() {
        // The format before the cache keyed on the caller's list: the specs
        // themselves next to the widths, with no count or fingerprint.
        let name = "test_old_format";
        let specs = specs(2);
        let stored = vectors(2);
        store(name, fingerprint(&specs), &stored).unwrap();
        let widths: Vec<u32> = stored.iter().map(|v| v.len() as u32).collect();
        let old = Json::obj()
            .set("version", CACHE_VERSION)
            .set("specs", specs.to_json())
            .set("widths", widths.to_json());
        let (m, _) = paths(name);
        std::fs::write(&m, old.dump()).unwrap();
        let mut calls = 0;
        load_or_compute(name, &specs, |s| {
            calls += 1;
            vectors(s.len())
        });
        assert_eq!(calls, 1);
        remove(name);
    }

    /// The dump this cache and the benchmark's render cache key on. A
    /// change here re-keys both, so it must be deliberate.
    #[test]
    fn capture_spec_dumps_are_pinned() {
        let baseline = CaptureSpec::baseline(0).to_json().dump();
        assert_eq!(baseline, BASELINE_DUMP);
        let replay = CaptureSpec {
            source: SourceKind::Replay {
                model: SpeakerModel::GalaxyS21,
                voice: VoiceProfile::adult_female(),
            },
            ambient: Some((NoiseKind::Tv, 45.0)),
            seed: u64::MAX - 1,
            ..CaptureSpec::baseline(0)
        };
        assert_eq!(replay.to_json().dump(), REPLAY_DUMP);
        assert_ne!(fingerprint(&[replay]), fingerprint(&specs(1)));
    }

    const BASELINE_DUMP: &str = r#"{"room":"Lab","placement":"LabA","device":"D2","location":{"radial_deg":0.0,"distance_m":3.0},"angle_deg":0.0,"wake_word":"Computer","source":{"Human":{"voice":{"f0_hz":120.0,"formant_scale":1.0,"brightness":1.0,"jitter":0.012,"shimmer":0.05,"rate":1.0}}},"loudness_spl":70.0,"ambient":null,"posture":"Standing","obstruction":"None","raised":false,"session":0,"temporal_drift":0.0,"seed":0}"#;
    const REPLAY_DUMP: &str = r#"{"room":"Lab","placement":"LabA","device":"D2","location":{"radial_deg":0.0,"distance_m":3.0},"angle_deg":0.0,"wake_word":"Computer","source":{"Replay":{"model":"GalaxyS21","voice":{"f0_hz":210.0,"formant_scale":1.16,"brightness":1.1,"jitter":0.01,"shimmer":0.045,"rate":1.05}}},"loudness_spl":70.0,"ambient":["Tv",45.0],"posture":"Standing","obstruction":"None","raised":false,"session":0,"temporal_drift":0.0,"seed":18446744073709551614}"#;
}
