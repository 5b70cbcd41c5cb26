//! Property tests for the certain/possible answer semantics over randomly
//! populated databases.

use ipe_core::CompletionConfig;
use ipe_oodb::gendata::{populate, DataConfig};
use ipe_oodb::{Database, EvalLimits};
use ipe_query::{evaluate_completions, query, Answer, QueryOptions};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const QUERIES: &[&str] = &["ta~name", "ta~ssn", "student~teacher", "department~name"];

fn random_db(seed: u64) -> Database {
    let schema = Arc::new(ipe_schema::fixtures::university());
    populate(
        &schema,
        &DataConfig {
            objects_per_class: 4,
            links_per_rel: 6,
            seed,
        },
    )
}

fn opts(e: usize) -> QueryOptions {
    QueryOptions {
        config: CompletionConfig {
            e,
            ..CompletionConfig::default()
        },
        ..QueryOptions::default()
    }
}

fn answer_set(answers: &[ipe_query::ProvenanceAnswer]) -> BTreeSet<Answer> {
    answers.iter().map(|a| a.answer.clone()).collect()
}

fn certain_set(answers: &[ipe_query::ProvenanceAnswer]) -> BTreeSet<Answer> {
    answers
        .iter()
        .filter(|a| a.certain)
        .map(|a| a.answer.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Certain answers are a subset of possible answers at every E, and
    /// re-evaluating the same completions (the cache-hit path) gives the
    /// same answers as the full query.
    #[test]
    fn certain_subset_of_possible(seed in 1u64..300, qi in 0usize..4, e in 1usize..5) {
        let db = random_db(seed);
        let out = query(&db, QUERIES[qi], &opts(e)).unwrap();
        let certain = certain_set(&out.answers);
        let possible = answer_set(&out.answers);
        prop_assert!(certain.is_subset(&possible));
        prop_assert_eq!(certain.len(), out.certain);
        prop_assert_eq!(possible.len(), out.possible());
        let warm = evaluate_completions(&db, &out.completions, &EvalLimits::default()).unwrap();
        prop_assert_eq!(warm.answers, out.answers);
        prop_assert_eq!(warm.certain, out.certain);
    }

    /// Differential check at E=1: evaluating each admitted completion
    /// *textually* (rendered back to the paper's syntax and re-resolved by
    /// name) reproduces the query's possible set as the union and the
    /// certain set as the intersection. When E=1 admits a single
    /// completion this is exactly "query answers == direct eval of the
    /// top completion"; the pipeline adds provenance, not answers.
    #[test]
    fn e1_answers_equal_direct_eval_of_completions(seed in 1u64..300, qi in 0usize..4) {
        let db = random_db(seed);
        let out = query(&db, QUERIES[qi], &opts(1)).unwrap();
        let mut union: BTreeSet<Answer> = BTreeSet::new();
        let mut intersection: Option<BTreeSet<Answer>> = None;
        for completion in &out.completions {
            let text = completion.display(db.schema()).to_string();
            let direct = db.eval_str(&text).unwrap();
            let mut set = BTreeSet::new();
            match direct {
                ipe_oodb::EvalOutput::Objects(objs) => {
                    set.extend(objs.into_iter().map(Answer::Object));
                }
                ipe_oodb::EvalOutput::Values(vals) => {
                    set.extend(vals.into_iter().map(Answer::Value));
                }
            }
            union.extend(set.iter().cloned());
            intersection = Some(match intersection {
                None => set,
                Some(prev) => prev.intersection(&set).cloned().collect(),
            });
        }
        prop_assert_eq!(answer_set(&out.answers), union);
        prop_assert_eq!(certain_set(&out.answers), intersection.unwrap_or_default());
    }

    /// Growing E only adds completions, so the certain set can only
    /// shrink (or hold) and the possible set can only grow (or hold).
    #[test]
    fn certain_antitone_possible_monotone_in_e(seed in 1u64..300, qi in 0usize..4) {
        let db = random_db(seed);
        let mut prev_certain: Option<BTreeSet<Answer>> = None;
        let mut prev_possible: Option<BTreeSet<Answer>> = None;
        for e in 1..=4 {
            let out = query(&db, QUERIES[qi], &opts(e)).unwrap();
            let certain = certain_set(&out.answers);
            let possible = answer_set(&out.answers);
            if let Some(prev) = &prev_certain {
                prop_assert!(certain.is_subset(prev), "certain set must not grow with E");
            }
            if let Some(prev) = &prev_possible {
                prop_assert!(prev.is_subset(&possible), "possible set must not shrink with E");
            }
            prev_certain = Some(certain);
            prev_possible = Some(possible);
        }
    }

    /// Provenance indices always point into the completion list and an
    /// answer is certain exactly when its provenance covers it fully.
    #[test]
    fn provenance_is_consistent(seed in 1u64..300, qi in 0usize..4, e in 1usize..5) {
        let db = random_db(seed);
        let out = query(&db, QUERIES[qi], &opts(e)).unwrap();
        for a in &out.answers {
            prop_assert!(!a.completions.is_empty());
            prop_assert!(a.completions.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(a.completions.iter().all(|&i| i < out.completions.len()));
            prop_assert_eq!(a.certain, a.completions.len() == out.completions.len());
        }
    }
}
