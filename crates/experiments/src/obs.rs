//! Per-experiment observability scoping and emission.
//!
//! `headtalk-repro` brackets every experiment with [`begin`] / [`emit`]:
//! the registry is cleared going in, and whatever the run recorded comes
//! out as a stage-timing breakdown scoped to that one experiment —
//! `HT_OBS=summary` prints a table to stderr, `HT_OBS=json` writes
//! `<id>.obs.json` next to the experiment's result JSON, and `HT_OBS=off`
//! (the default) does nothing at all.

use std::path::Path;

/// Opens an experiment's observability scope: clears the global registry so
/// the upcoming run's spans and counters are attributable to this
/// experiment alone. No-op when observability is off.
pub fn begin() {
    if ht_obs::mode() != ht_obs::Mode::Off {
        ht_obs::registry().reset();
    }
}

/// Emits whatever the registry accumulated since [`begin`], according to
/// the active mode. Returns the path written under `HT_OBS=json` (no file
/// is written when nothing was recorded).
pub fn emit(id: &str, results_dir: &Path) -> Option<std::path::PathBuf> {
    match ht_obs::mode() {
        ht_obs::Mode::Off => None,
        ht_obs::Mode::Summary => {
            let snap = ht_obs::registry().snapshot();
            if !snap.is_empty() {
                eprintln!("[ht-obs] {id}:\n{}", snap.summary_table());
            }
            None
        }
        ht_obs::Mode::Json => {
            let snap = ht_obs::registry().snapshot();
            if snap.is_empty() {
                return None;
            }
            let path = results_dir.join(format!("{id}.obs.json"));
            match std::fs::create_dir_all(results_dir)
                .and_then(|()| std::fs::write(&path, ht_dsp::obs::obs_report(&snap)))
            {
                Ok(()) => Some(path),
                Err(e) => {
                    eprintln!("[ht-obs] could not write {}: {e}", path.display());
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: mode and registry are process-wide, so
    // splitting these assertions across tests would race under parallel
    // test threads.
    #[test]
    fn emit_writes_json_report_scoped_by_begin() {
        ht_obs::set_mode(ht_obs::Mode::Off);
        assert!(emit("unit", Path::new("/nonexistent")).is_none());

        ht_obs::set_mode(ht_obs::Mode::Json);
        ht_obs::registry().reset();
        ht_obs::record_ns("test.stale", 10); // must not survive begin()
        begin();
        ht_obs::record_ns("test.fresh", 1_000);
        let dir = std::env::temp_dir().join("ht_obs_emit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = emit("unit", &dir).expect("a report is written");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("test.fresh"));
        assert!(!text.contains("test.stale"));
        let _ = std::fs::remove_file(&path);
        ht_obs::set_mode(ht_obs::Mode::Off);
        ht_obs::registry().reset();
    }
}
