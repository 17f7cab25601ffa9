//! Replays every differential-fuzzing corpus fixture (`tests/corpus/*.toml`
//! at the workspace root) across the full backend × worker-count grid: the
//! schedule-independent fingerprint must be byte-identical for every
//! combination.
//!
//! New fixtures are added automatically: drop a `fixture_toml`-format file
//! in the corpus directory and this test picks it up.

use std::fs;
use std::path::PathBuf;

use eclectic_kernel::{force_worker_cap, RelChoice};
use eclectic_spec::fuzz::{build_domain, engine_outcome, outcome_difference, parse_fixture};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn fixtures() -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("workspace tests/corpus directory")
        .map(|e| e.expect("corpus dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    out.sort();
    out
}

#[test]
fn corpus_fixtures_replay_identically_across_all_engines() {
    let paths = fixtures();
    assert!(!paths.is_empty(), "the corpus must contain anchor fixtures");
    let _cap = force_worker_cap(usize::MAX);
    for path in paths {
        let text = fs::read_to_string(&path).unwrap();
        let (seed, cfg) = parse_fixture(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let spec = build_domain(seed, &cfg)
            .unwrap_or_else(|e| panic!("{}: generation failed: {e}", path.display()));
        let vc = cfg.verify_config();

        let baseline = engine_outcome(&spec, &vc, RelChoice::Dense, 1);
        for backend in [RelChoice::Dense, RelChoice::Sparse, RelChoice::Compressed] {
            for workers in [1usize, 2, 4, 8] {
                let outcome = engine_outcome(&spec, &vc, backend, workers);
                if let Some(detail) = outcome_difference(&baseline, &outcome) {
                    panic!(
                        "{}: {backend:?}/{workers} diverged from dense/1: {detail}",
                        path.display()
                    );
                }
            }
        }
    }
}
