//! Hostile inputs: values and patterns shaped to make a matcher recurse
//! deeply, backtrack exponentially or outgrow a compiled form. Each call
//! must return, quickly, with an answer or a typed error — never abort
//! the process.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use clx::{tokenize, ClxSession, Pattern, Token, TokenClass};

/// Run the ignored test `name` of this binary in a child process — a
/// stack overflow there cannot take this process down — and fail unless it
/// passes within `within` (the child is killed at the bound).
fn run_child(name: &str, within: Duration) {
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", name, "--ignored"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let start = Instant::now();
    while child.try_wait().unwrap().is_none() {
        if start.elapsed() > within {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("{name} did not finish within {within:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "child exited with {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("1 passed"), "child ran no test:\n{stdout}");
}

/// The child half of [`a_long_leaf_matches_without_overflowing_the_stack`]:
/// a stack overflow would take the whole test binary down, so it is
/// ignored and only ever run in a child process.
#[test]
#[ignore = "run in a child process by a_long_leaf_matches_without_overflowing_the_stack"]
fn long_leaf_child() {
    let value = "1-".repeat(100_000);
    let leaf = tokenize(&value);
    assert_eq!(leaf.len(), 200_000);
    assert!(leaf.matches(&value));
    let slices = leaf.split(&value).expect("a value matches its own leaf");
    assert_eq!(slices.len(), 200_000);
    assert_eq!(slices.last().unwrap().end, value.len());
}

#[test]
fn a_long_leaf_matches_without_overflowing_the_stack() {
    run_child("long_leaf_child", Duration::from_secs(120));
}

/// The child half of [`long_values_profile_without_overflowing_the_stack`]:
/// profiling two 200 KB values builds hierarchy nodes of ~150k tokens, and
/// every parent/child check runs `Pattern::covers` over them.
#[test]
#[ignore = "run in a child process by long_values_profile_without_overflowing_the_stack"]
fn long_values_profile_child() {
    let values = vec!["ab1-".repeat(50_000), "cd2_".repeat(50_000)];
    let session = ClxSession::new(values.clone());
    let hierarchy = session.hierarchy();
    for value in &values {
        let leaf = tokenize(value);
        assert_eq!(leaf.len(), 150_000);
        assert!(hierarchy
            .roots()
            .iter()
            .any(|root| root.pattern.covers(&leaf)));
    }
}

#[test]
fn long_values_profile_without_overflowing_the_stack() {
    run_child("long_values_profile_child", Duration::from_secs(120));
}

/// The child half of [`long_values_label_in_bounded_time`]: aligning a
/// 150k-token source with `"ab1-ab1-"` finds ~50k similar source tokens
/// per target token, and sequential extracts combine them pairwise.
#[test]
#[ignore = "run in a child process by long_values_label_in_bounded_time"]
fn long_values_label_child() {
    let values = vec!["ab1-".repeat(50_000), "cd2_".repeat(50_000)];
    let session = ClxSession::new(values)
        .label_by_example("ab1-ab1-")
        .expect("label");
    assert_eq!(session.target(), &tokenize("ab1-ab1-"));
}

#[test]
fn long_values_label_in_bounded_time() {
    run_child("long_values_label_child", Duration::from_secs(30));
}

#[test]
fn plus_runs_separated_by_class_literals_do_not_backtrack() {
    // `<L>+'a'<L>+'a'<L>+'a'<L>+'b'`: every `'a'` is also in `<L>`, so a
    // backtracking matcher tries every way to cut 400 `a`s into four runs.
    let lower = || Token::plus(TokenClass::Lower);
    let pattern = Pattern::new(vec![
        lower(),
        Token::literal("a"),
        lower(),
        Token::literal("a"),
        lower(),
        Token::literal("a"),
        lower(),
        Token::literal("b"),
    ]);
    let value = "a".repeat(400);
    let start = Instant::now();
    assert!(!pattern.matches(&value));
    assert!(pattern.split(&value).is_err());
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
}

#[test]
fn a_forty_thousand_token_target_compiles_and_streams() {
    let session = ClxSession::new(vec!["abc".to_string(), "xyz".to_string()])
        .label_by_example(&"1-".repeat(20_000))
        .expect("label");
    assert_eq!(session.target().len(), 40_000);
    let compiled = session.compile().expect("compile");
    assert_eq!(compiled.target().len(), 40_000);
    let mut stream = session.stream_columns().expect("stream");
    let report = stream.push_rows(&["abc", &"1-".repeat(20_000)]);
    assert!(report.iter_rows().nth(1).unwrap().is_conforming());
    assert_eq!(
        session.apply().unwrap().values(),
        ["abc".to_string(), "xyz".to_string()]
    );
}
