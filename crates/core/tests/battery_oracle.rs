//! The obligation DAG against a straight-line oracle: the public obligation
//! calls made one after another in canonical stage order, at one worker,
//! with no scheduler in between. `verify_with_threads` must reproduce the
//! oracle's schedule-independent fingerprint at 1/2/4/8 genuine workers on
//! the packaged domains and the differential-fuzzing corpus anchors, both
//! uncapped and under a node cap that trips mid-battery.

use std::fs;
use std::path::PathBuf;

use eclectic_kernel::{force_worker_cap, Budget};
use eclectic_refine::{
    check_dynamic_budget, check_equations_budget, check_valid_reachable, cross_check_budget,
    obligation_axioms, obligation_completeness, obligation_exploration, obligation_termination,
    random_ops, CrossCheckStats, FullReport, InducedAlgebra, Refine12Report, ValidReachableReport,
};
use eclectic_rpr::wgrammar;
use eclectic_spec::domains::{bank, courses, library};
use eclectic_spec::fuzz::{
    build_domain, outcome_difference, parse_fixture, EngineOutcome, Fingerprint,
};
use eclectic_spec::{
    verify_with_threads, SpecError, StageStats, TriLevelSpec, VerificationOutcome, VerifyConfig,
};

/// The node cap of the partial runs: small enough to trip inside refine12.
const CAPPED_NODES: usize = 200;

/// The seed of `verify`'s cross-check trace generator (xorshift64*).
const CROSS_SEED: u64 = 0x5eed_1234_abcd_0001;

/// The whole battery as straight-line calls, one obligation after another.
fn straight_line(
    spec: &TriLevelSpec,
    cfg: &VerifyConfig,
) -> Result<VerificationOutcome, SpecError> {
    spec.check_shape()?;
    let budget: Budget = cfg.budget();
    let (grammar_ok, grammar_error) = match wgrammar::check_schema(&spec.representation) {
        Ok(_) => (true, None),
        Err(e) => (false, Some(e.to_string())),
    };

    let termination = obligation_termination(&spec.functions)?;
    let completeness =
        obligation_completeness(&spec.functions, cfg.refine12.completeness_depth, &budget, 1)?;
    let exploration = obligation_exploration(
        &spec.functions,
        &spec.interp_i,
        spec.info_signature(),
        &spec.info_domains,
        cfg.refine12.limits,
        &budget,
        1,
    )?;
    let (static_violations, transition_violations) = obligation_axioms(
        &spec.information,
        &spec.functions,
        cfg.refine12.policy,
        &exploration,
    )?;
    // Obligation (c) is skipped, inconclusively, over a truncated universe.
    let valid_reachable = if exploration.exhausted.is_some() {
        ValidReachableReport {
            candidates: 0,
            valid: 0,
            reachable_valid: 0,
            unreachable: Vec::new(),
            exploration_truncated: true,
        }
    } else {
        check_valid_reachable(&spec.information, &exploration, cfg.candidate_cap)?
    };
    let refine12 = Refine12Report {
        termination,
        completeness,
        static_violations,
        transition_violations,
        exploration,
    };

    let mut induced = InducedAlgebra::new(
        &spec.functions,
        &spec.representation,
        &spec.interp_k,
        spec.empty_state(),
    )?;
    let equations =
        check_equations_budget(&mut induced, cfg.eq_depth, cfg.eq_max_states, 20, &budget)?;

    let dynamic = check_dynamic_budget(
        &spec.representation,
        &spec.empty_state(),
        cfg.pdl_universe_cap,
        &budget,
        1,
    )?;

    let alg = spec.functions.signature();
    let mut initial = None;
    for u in alg.updates() {
        if !alg.update_takes_state(u).map_err(SpecError::Alg)? {
            initial = Some(alg.logic().func(u).name.clone());
            break;
        }
    }
    let initial =
        initial.ok_or_else(|| SpecError::Incomplete("no initial state constant".into()))?;
    let mut rng = CROSS_SEED;
    let mut choose = move |n: usize| {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        (rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
    };
    let (mut cross_mismatch, mut cross_stats, mut cross_exhausted) =
        (None, CrossCheckStats::default(), None);
    for _ in 0..cfg.random_traces {
        let ops = random_ops(
            &spec.functions,
            &induced,
            &initial,
            cfg.trace_len,
            &mut choose,
        )?;
        let (mismatch, stats, exhausted) =
            cross_check_budget(&spec.functions, &mut induced, &ops, &budget, 1)?;
        cross_stats.ops += stats.ops;
        cross_stats.comparisons += stats.comparisons;
        if mismatch.is_some() {
            cross_mismatch = mismatch;
            break;
        }
        if exhausted.is_some() {
            cross_exhausted = exhausted;
            break;
        }
    }

    let stage = |name, exhausted| StageStats {
        name,
        elapsed_ms: 0,
        exhausted,
    };
    let stages = vec![
        stage("refine12", refine12.exhausted().cloned()),
        stage("witness", None),
        stage("equations", equations.exhausted.clone()),
        stage("dynamic", dynamic.exhausted.clone()),
        stage("cross", cross_exhausted),
    ];
    Ok(VerificationOutcome {
        grammar_ok,
        grammar_error,
        report: FullReport {
            refine12,
            valid_reachable,
            equations,
        },
        cross_mismatch,
        cross_stats,
        dynamic,
        stages,
    })
}

fn fingerprint(o: Result<VerificationOutcome, SpecError>) -> EngineOutcome {
    o.map(|o| Fingerprint::of(&o)).map_err(|e| e.to_string())
}

/// Asserts that `verify_with_threads` matches the oracle at 1/2/4/8
/// genuine workers, uncapped and node-capped. Returns whether the capped
/// oracle run recorded an exhaustion.
fn assert_matches_oracle(name: &str, spec: &TriLevelSpec, cfg: &VerifyConfig) -> bool {
    let mut capped = *cfg;
    capped.max_nodes = Some(CAPPED_NODES);
    let mut tripped = false;
    for (label, vc) in [("uncapped", cfg), ("capped", &capped)] {
        let oracle = fingerprint(straight_line(spec, vc));
        if let Ok(f) = &oracle {
            tripped |= vc.max_nodes.is_some() && f.stages.iter().any(|(_, e)| e.is_some());
        }
        for workers in [1usize, 2, 4, 8] {
            let dag = fingerprint(verify_with_threads(spec, vc, workers));
            if let Some(detail) = outcome_difference(&oracle, &dag) {
                panic!(
                    "{name} ({label}): DAG at {workers} workers diverged from the oracle: {detail}"
                );
            }
        }
    }
    tripped
}

#[test]
fn obligation_dag_matches_straight_line_oracle_on_packaged_domains() {
    let _cap = force_worker_cap(usize::MAX);
    let cfg = VerifyConfig::quick();
    let domains = [
        (
            "courses",
            courses::courses(&courses::CoursesConfig::default()).unwrap(),
        ),
        (
            "library",
            library::library(&library::LibraryConfig::default()).unwrap(),
        ),
        ("bank", bank::bank(&bank::BankConfig::default()).unwrap()),
    ];
    for (name, spec) in &domains {
        assert!(
            assert_matches_oracle(name, spec, &cfg),
            "{name}: cap {CAPPED_NODES} must trip a stage"
        );
    }
}

#[test]
fn obligation_dag_matches_straight_line_oracle_on_corpus_anchors() {
    let _cap = force_worker_cap(usize::MAX);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .expect("workspace tests/corpus directory")
        .map(|e| e.expect("corpus dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 5,
        "the corpus must hold its five anchor fixtures"
    );
    for path in paths {
        let name = path.display().to_string();
        let (seed, cfg) = parse_fixture(&fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let spec = build_domain(seed, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_matches_oracle(&name, &spec, &cfg.verify_config());
    }
}
