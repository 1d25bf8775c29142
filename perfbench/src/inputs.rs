//! The benchmark's inputs: the training recipe of `tests/end_to_end.rs`,
//! the serving pool and the batch corpus, all rendered by `ht-datagen`.
//!
//! Captures are a fixed function of their `CaptureSpec`s — identical on
//! every run and for every `--seed` — so the seed only draws schedules
//! (orders, chunkings, arrival times), never different audio. Rendering
//! (~170 ms per capture) happens in a child process before anything is
//! timed and is cached on disk under the cargo target directory, keyed by
//! the spec's JSON plus a fingerprint of the sources that render it
//! (`ht-dsp`, `ht-acoustics`, `ht-speech`, `ht-datagen`). The measuring
//! process only ever loads the cache, so neither its timings nor its peak
//! RSS depend on the cache state.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use headtalk::facing::FacingDefinition;
use ht_datagen::{CaptureSpec, SourceKind};
use ht_dsp::json::ToJson;
use ht_speech::replay::SpeakerModel;
use ht_speech::voice::VoiceProfile;

use crate::sys::Fnv;

/// One multichannel capture: `channels × samples` at 48 kHz.
pub type Capture = Vec<Vec<f64>>;

/// The facing definition the orientation model is trained under.
pub const FACING: FacingDefinition = FacingDefinition::Definition4;

/// Orientation training angles (`tests/end_to_end.rs`).
const TRAIN_ANGLES: [f64; 8] = [0.0, 15.0, -30.0, 30.0, 90.0, -90.0, 135.0, 180.0];

/// Serving captures: four of each mix class (facing human, 90° human,
/// 180° human, facing Sony replay).
pub const SERVE_POOL: usize = 32;
const SERVE_RENDER_SEED: u64 = 0x5E4E_0001;

/// Batch-corpus captures, from a render seed the serving pool never uses.
pub const CORPUS: usize = 64;
const CORPUS_RENDER_SEED: u64 = 0xC0_4B05_0002;

/// What a decision should be, from the scenario alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    Accept,
    OrientationReject,
    LivenessReject,
}

impl Truth {
    pub fn of(spec: &CaptureSpec) -> Truth {
        if !spec.source.is_live() {
            Truth::LivenessReject
        } else if FACING.label(spec.angle_deg) == Some(1) {
            Truth::Accept
        } else {
            Truth::OrientationReject
        }
    }
}

/// Labeled training captures for one pipeline: the orientation captures
/// first, then the liveness captures, in one slice (which is also the int8
/// calibration set).
pub struct TrainingSet {
    pub captures: Vec<Capture>,
    /// Facing labels of the first `orientation_labels.len()` captures.
    pub orientation_labels: Vec<usize>,
    /// Live (1) / replay (0) labels of the remaining captures.
    pub liveness_labels: Vec<usize>,
}

impl TrainingSet {
    pub fn orientation(&self) -> impl Iterator<Item = (&Capture, usize)> {
        self.captures
            .iter()
            .zip(self.orientation_labels.iter().copied())
    }

    pub fn liveness(&self) -> impl Iterator<Item = (&Capture, usize)> {
        self.captures[self.orientation_labels.len()..]
            .iter()
            .zip(self.liveness_labels.iter().copied())
    }
}

/// Specs with their training labels.
type Labeled = Vec<(CaptureSpec, usize)>;

/// The orientation and liveness training specs.
fn training_specs() -> (Labeled, Labeled) {
    let mut orientation = Vec::new();
    for (i, angle) in TRAIN_ANGLES.into_iter().enumerate() {
        for rep in 0..4u64 {
            let spec = CaptureSpec {
                angle_deg: angle,
                seed: 100 + i as u64 * 4 + rep,
                ..CaptureSpec::baseline(0)
            };
            if let Some(label) = FACING.label(angle) {
                orientation.push((spec, label));
            }
        }
    }
    let mut liveness = Vec::new();
    for i in 0..16u64 {
        liveness.push((CaptureSpec::baseline(300 + i), 1));
        liveness.push((
            CaptureSpec {
                source: SourceKind::Replay {
                    model: SpeakerModel::SonySrsX5,
                    voice: VoiceProfile::adult_male(),
                },
                ..CaptureSpec::baseline(400 + i)
            },
            0,
        ));
    }
    (orientation, liveness)
}

/// The serving pool's specs.
pub fn serve_specs() -> Vec<CaptureSpec> {
    ht_datagen::datasets::serve_scenarios(SERVE_POOL, SERVE_RENDER_SEED)
}

/// The batch corpus's specs.
pub fn corpus_specs() -> Vec<CaptureSpec> {
    ht_datagen::datasets::serve_scenarios(CORPUS, CORPUS_RENDER_SEED)
}

/// Every capture a run needs, loaded from the render cache.
pub struct Inputs {
    pub training: TrainingSet,
    /// The workload's captures (serving pool or batch corpus).
    pub specs: Vec<CaptureSpec>,
    pub captures: Vec<Capture>,
    /// Captures rendered this run (0 on a warm cache).
    pub rendered: usize,
    /// Fingerprint of every generated sample.
    pub checksum: u64,
}

/// The training specs followed by `specs`: everything one run renders.
fn all_specs(specs: &[CaptureSpec]) -> (Labeled, Labeled, Vec<CaptureSpec>) {
    let (orientation, liveness) = training_specs();
    let mut all: Vec<CaptureSpec> = orientation.iter().map(|(s, _)| *s).collect();
    all.extend(liveness.iter().map(|(s, _)| *s));
    all.extend(specs);
    (orientation, liveness, all)
}

/// Renders whatever the cache lacks for a run over `specs`, in parallel,
/// and stores it. Returns how many captures were rendered.
pub fn render_missing(specs: &[CaptureSpec]) -> usize {
    let (_, _, all) = all_specs(specs);
    let missing: Vec<&CaptureSpec> = all.iter().filter(|s| !cache_path(s).exists()).collect();
    let rendered: Vec<Capture> = ht_par::par_map(&missing, |spec| {
        spec.render().expect("scenario render succeeds")
    });
    for (spec, capture) in missing.iter().zip(&rendered) {
        write_cached(&cache_path(spec), capture);
    }
    missing.len()
}

/// Builds a run's inputs: the training set plus `specs`. Missing captures
/// are rendered by a child process (`render_child`, which must run
/// [`render_missing`]), so rendering leaves nothing behind in this
/// process's heap and `rss_peak_mb` does not depend on the cache state.
pub fn generate(specs: Vec<CaptureSpec>, render_child: std::process::Command) -> Inputs {
    let (orientation, liveness, all) = all_specs(&specs);
    let missing = all.iter().filter(|s| !cache_path(s).exists()).count();
    if missing > 0 {
        let mut child = render_child;
        let status = child
            .stdout(std::process::Stdio::null())
            .status()
            .expect("spawn the render process");
        assert!(status.success(), "render process failed: {status}");
    }
    let mut captures: Vec<Capture> = all
        .iter()
        .map(|s| {
            let path = cache_path(s);
            read_cached(&path)
                .unwrap_or_else(|| panic!("render cache entry {} unreadable", path.display()))
        })
        .collect();

    let mut fp = Fnv::new();
    for c in &captures {
        fingerprint(&mut fp, c);
    }
    let workload = captures.split_off(orientation.len() + liveness.len());
    Inputs {
        training: TrainingSet {
            captures,
            orientation_labels: orientation.iter().map(|(_, l)| *l).collect(),
            liveness_labels: liveness.iter().map(|(_, l)| *l).collect(),
        },
        specs,
        captures: workload,
        rendered: missing,
        checksum: fp.0,
    }
}

fn fingerprint(fp: &mut Fnv, capture: &Capture) {
    fp.mix_word(capture.len() as u64);
    for ch in capture {
        fp.mix_word(ch.len() as u64);
        for &x in ch {
            fp.mix_word(x.to_bits());
        }
    }
}

/// Where rendered captures persist between runs: inside the cargo target
/// directory, which the checkout already ignores.
fn cache_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../target"));
    target.join("perfbench-renders")
}

/// A fingerprint of every source file that influences a render, so a change
/// to the renderer invalidates the cache.
fn source_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
        let mut files = Vec::new();
        for krate in ["dsp", "acoustics", "speech", "datagen"] {
            let dir = root.join(krate);
            files.push(dir.join("Cargo.toml"));
            collect_files(&dir.join("src"), &mut files);
        }
        files.sort();
        let mut fp = Fnv::new();
        for f in &files {
            let rel = f.strip_prefix(&root).unwrap_or(f);
            fp.mix_bytes(rel.to_string_lossy().as_bytes());
            let bytes = std::fs::read(f)
                .unwrap_or_else(|e| panic!("read renderer source {}: {e}", f.display()));
            fp.mix_bytes(&bytes);
        }
        fp.0
    })
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("list renderer sources in {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn cache_path(spec: &CaptureSpec) -> PathBuf {
    let mut fp = Fnv::new();
    fp.mix(source_fingerprint());
    fp.mix_bytes(spec.to_json().dump().as_bytes());
    cache_dir().join(format!("{:016x}.cap", fp.0))
}

const MAGIC: &[u8; 8] = b"HTCAP01\0";

fn read_cached(path: &Path) -> Option<Capture> {
    let bytes = std::fs::read(path).ok()?;
    let word = |i: usize| -> Option<u64> {
        Some(u64::from_le_bytes(bytes.get(i..i + 8)?.try_into().ok()?))
    };
    if bytes.get(..8)? != MAGIC {
        return None;
    }
    let channels = usize::try_from(word(8)?).ok()?;
    let len = usize::try_from(word(16)?).ok()?;
    let body = &bytes[24..];
    if body.len() != channels.checked_mul(len)?.checked_mul(8)? {
        return None;
    }
    let mut samples = body
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")));
    Some(
        (0..channels)
            .map(|_| samples.by_ref().take(len).collect())
            .collect(),
    )
}

fn write_cached(path: &Path, capture: &Capture) {
    let len = capture.first().map_or(0, Vec::len);
    let mut bytes = Vec::with_capacity(24 + 8 * len * capture.len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&(capture.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(len as u64).to_le_bytes());
    for ch in capture {
        for x in ch {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
    }
    // Write-then-rename, so an interrupted run never leaves a torn entry.
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::create_dir_all(cache_dir())
        .and_then(|()| std::fs::write(&tmp, &bytes))
        .and_then(|()| std::fs::rename(&tmp, path))
        .unwrap_or_else(|e| panic!("render cache write {}: {e}", path.display()));
}
