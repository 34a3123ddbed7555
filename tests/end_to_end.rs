//! Cross-crate integration tests: complete Cluster–Label–Transform sessions
//! on the paper's running examples, exercising the public `clx` facade.

use clx::cluster::PatternProfiler;
use clx::{parse_pattern, tokenize, ClxSession};

#[test]
fn motivating_example_phone_numbers() {
    let column: Vec<String> = [
        "(734) 645-8397",
        "(734) 763-1147",
        "(734)586-7252",
        "734-422-8073",
        "734-936-2447",
        "734.236.3466",
        "N/A",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let session = ClxSession::new(column);
    assert_eq!(session.patterns().len(), 5);

    let session = session.label(tokenize("734-422-8073")).unwrap();
    let report = session.apply().unwrap();

    assert_eq!(report.transformed_count(), 4);
    assert_eq!(report.conforming_count(), 2);
    assert_eq!(report.flagged_count(), 1);
    assert_eq!(report.flagged_values(), vec!["N/A"]);
    assert_eq!(
        report.values(),
        vec![
            "734-645-8397",
            "734-763-1147",
            "734-586-7252",
            "734-422-8073",
            "734-936-2447",
            "734-236-3466",
            "N/A",
        ]
    );
}

#[test]
fn explained_program_is_what_runs() {
    // The verifiability claim: the Replace operations shown to the user and
    // the internal UniFi program are behaviourally identical on the data.
    let column: Vec<String> = [
        "(734) 645-8397",
        "(734)586-7252",
        "734.236.3466",
        "734 422 8073",
        "734-422-8073",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let session = ClxSession::new(column)
        .label(tokenize("734-422-8073"))
        .unwrap();
    let checked = session.verify_explanation().unwrap();
    assert_eq!(checked, 4);

    // The rendered operation list looks like Figure 4.
    let listing = session.suggested_operations("column1").unwrap();
    assert!(listing.contains("Replace '/^"));
    assert!(listing.contains("{digit}"));
    assert!(listing.contains("with '"));
}

#[test]
fn example_5_medical_codes_with_generalized_label() {
    let column: Vec<String> = ["CPT-00350", "[CPT-00340", "[CPT-11536]", "CPT115"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let session = ClxSession::new(column)
        .label(parse_pattern("'['<U>+'-'<D>+']'").unwrap())
        .unwrap();
    let report = session.apply().unwrap();
    assert_eq!(
        report.values(),
        vec!["[CPT-00350]", "[CPT-00340]", "[CPT-11536]", "[CPT-115]"]
    );
    assert!(report.is_perfect());
}

#[test]
fn pattern_level_verification_shrinks_with_scale() {
    // The number of units the user must verify is the number of pattern
    // clusters, which stays fixed while the data grows.
    let small = clx::datagen::study_case(30, 4, 1);
    let large = clx::datagen::study_case(3_000, 4, 2);
    let small_patterns = ClxSession::new(small.data).patterns().len();
    let large_patterns = ClxSession::new(large.data).patterns().len();
    assert_eq!(small_patterns, 4);
    assert_eq!(large_patterns, 4);
}

#[test]
fn repair_interaction_fixes_ambiguous_dates() {
    let column: Vec<String> = ["25/12/2017", "13/04/2018", "28/02/2019", "12-25-2017"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let expected = ["12-25-2017", "04-13-2018", "02-28-2019", "12-25-2017"];

    let mut session = ClxSession::new(column)
        .label(tokenize("12-25-2017"))
        .unwrap();

    let source = parse_pattern("<D>2'/'<D>2'/'<D>4").unwrap();
    let alternatives = session.alternatives(&source).unwrap().len();
    assert!(alternatives >= 2);

    let mut fixed = false;
    for choice in 0..alternatives {
        session.repair(&source, choice);
        let out = session.apply().unwrap();
        if out.values() == expected {
            fixed = true;
            break;
        }
    }
    assert!(fixed, "one of the ranked alternatives swaps day and month");
}

#[test]
fn flagged_rows_are_never_modified() {
    let column: Vec<String> = ["N/A", "unknown", "(734) 645-8397"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let session = ClxSession::new(column.clone())
        .label(tokenize("734-422-8073"))
        .unwrap();
    let report = session.apply().unwrap();
    for (input, row) in column.iter().zip(report.iter_rows()) {
        if row.is_flagged() {
            assert_eq!(row.value(), input);
        }
    }
    assert_eq!(report.flagged_count(), 2);
}

#[test]
fn baseline_flashfill_round_trip_through_facade() {
    use clx::flashfill::{Example, FlashFill};
    let program = FlashFill::new()
        .learn(&[Example::new("(734) 645-8397", "734-645-8397")])
        .unwrap();
    assert_eq!(program.apply("(231) 555-0199").unwrap(), "231-555-0199");
}

#[test]
fn benchmark_suite_tasks_run_end_to_end() {
    // Smoke-run a handful of suite tasks through full CLX sessions.
    let suite = clx::datagen::benchmark_suite(0);
    for name in ["ff-phone", "bf-medical-ex3", "ff-date", "sygus-car-1"] {
        let task = suite.iter().find(|t| t.name == name).unwrap();
        let session = ClxSession::new(task.inputs.clone())
            .label(task.target_pattern())
            .unwrap();
        let report = session.apply().unwrap();
        // Every non-flagged output matches the labelled target pattern.
        for row in report.iter_rows() {
            if !row.is_flagged() {
                assert!(
                    task.target_pattern().matches(row.value()),
                    "task {name}: output {:?} does not match target",
                    row.value()
                );
            }
        }
    }
}

#[test]
fn explanations_verify_on_every_suite_instance() {
    // The explained `Replace` operations must run like the program on every
    // benchmark task, not only on phone numbers: literal text such as
    // 'Stanford' or the 'd' of "123d" has to render as itself, not as a
    // regex escape class.
    for seed in 0..5 {
        for task in clx::datagen::benchmark_suite(seed) {
            let session = ClxSession::new(task.inputs.clone())
                .label(task.target_pattern())
                .unwrap();
            if let Err(e) = session.verify_explanation() {
                panic!("seed {seed}, task {}: {e:?}", task.name);
            }
            // What runs is parsed from what is displayed.
            for op in session.explanation().unwrap().operations {
                assert_eq!(
                    Some(op.regex().as_str()),
                    op.regex_display
                        .strip_prefix('/')
                        .and_then(|d| d.strip_suffix('/')),
                    "seed {seed}, task {}",
                    task.name
                );
            }
        }
    }
}

#[test]
fn result_patterns_equal_a_full_profile_of_the_output() {
    // `result_patterns` builds the output column from the distinct output
    // texts and computes only its leaf clusters; the summary must be the
    // leaves of a full profile of the output rows, before and after a
    // repair (whose outputs need not match the target).
    let summary_of = |session: &ClxSession<clx::Labelled>| {
        let output = clx::Column::from_rows(session.apply().unwrap().values());
        PatternProfiler::with_options(session.options().profiler.clone())
            .profile_column(&output)
            .pattern_summary()
    };
    for seed in 0..5 {
        for task in clx::datagen::benchmark_suite(seed) {
            let mut session = ClxSession::new(task.inputs.clone())
                .label(task.target_pattern())
                .unwrap();
            let context = format!("seed {seed}, task {}", task.name);
            assert_eq!(
                session.result_patterns().unwrap(),
                summary_of(&session),
                "{context}"
            );
            let source = session
                .synthesis()
                .sources
                .iter()
                .find(|source| source.plans.len() >= 2)
                .map(|source| source.pattern.clone());
            if let Some(source) = source {
                assert!(session.repair(&source, 1), "{context}");
                assert_eq!(
                    session.result_patterns().unwrap(),
                    summary_of(&session),
                    "{context}, repaired"
                );
            }
        }
    }
}
