//! Output checks, run after the timed phase so they are never timed.
//!
//! Every reply was reduced to a hash of its answer part while the clock
//! ran (see `wire::hash_completions`). Here each reply's hash is compared
//! with the hash of an answer computed independently of the server: a
//! direct `Completer::complete_with_stats` call, the exhaustive oracle, or
//! a naive evaluate-and-merge written in this file.

use crate::inputs::{Churn, FleetSchema, Inputs, Key, FIGURE2, PROBE_QUERY};
use crate::traffic::{MainRecord, SideKind, SideRecord};
use crate::wire;
use ipe_core::{exhaustive, CompleteError, Completer, Completion, CompletionConfig, SearchOutcome};
use ipe_oodb::{Database, EvalLimits, EvalOutput};
use ipe_query::Answer;
use ipe_schema::Schema;
use ipe_service::{AnswerView, CompletionView};
use std::collections::{BTreeMap, HashMap};

/// Wrong answers found, with the first few described.
#[derive(Default)]
pub struct Verdict {
    pub wrong: u64,
    /// Keys the exhaustive oracle confirmed.
    pub oracle_checked: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn fail(&mut self, note: String) {
        self.wrong += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

pub fn config(schema: &Schema, e: u64, exclude: &[String]) -> CompletionConfig {
    CompletionConfig {
        e: e as usize,
        excluded_classes: exclude
            .iter()
            .map(|n| schema.class_named(n).expect("excluded class exists"))
            .collect(),
        ..CompletionConfig::default()
    }
}

pub fn direct(
    schema: &Schema,
    query: &str,
    cfg: CompletionConfig,
) -> Result<SearchOutcome, String> {
    let ast = ipe_parser::parse_path_expression(query).map_err(|e| e.to_string())?;
    Completer::with_config(schema, cfg)
        .complete_with_stats(&ast)
        .map_err(|e| format!("{query}: {e}"))
}

pub fn views(schema: &Schema, completions: &[Completion]) -> Vec<CompletionView> {
    completions
        .iter()
        .map(|c| CompletionView {
            text: c.display(schema).to_string(),
            connector: c.label.connector.to_string(),
            semlen: c.label.semlen as u64,
            edges: c.edges.len() as u64,
        })
        .collect()
}

/// The hash a completion reply carrying `views` has.
pub fn completions_hash(views: &[CompletionView]) -> u64 {
    let json = serde_json::to_string(views).expect("views serialize");
    wire::hash(&format!("\"completions\":{json},"))
}

fn key_hubs<'a>(fleet: &'a [FleetSchema], key: &Key) -> &'a [String] {
    if key.exclude_hubs {
        &fleet[key.schema].hub_names
    } else {
        &[]
    }
}

/// Expected completion hash of every key the records touch, computed on
/// `threads` threads.
fn expected_completions(
    fleet: &[FleetSchema],
    keys: &[Key],
    used: &[usize],
    threads: usize,
) -> HashMap<usize, Result<u64, String>> {
    let chunks: Vec<&[usize]> = used.chunks(used.len().div_ceil(threads).max(1)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&k| {
                            let key = &keys[k];
                            let schema = &fleet[key.schema].schema;
                            let cfg = config(schema, key.e, key_hubs(fleet, key));
                            let h = direct(schema, &key.query, cfg)
                                .map(|o| completions_hash(&views(schema, &o.completions)));
                            (k, h)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    })
}

fn distinct_keys(records: &[MainRecord]) -> Vec<usize> {
    let mut used: Vec<usize> = records.iter().map(|r| r.key as usize).collect();
    used.sort_unstable();
    used.dedup();
    used
}

/// `warm_complete` and `cold_search`: every reply equals the direct engine
/// on its key, is (or is not) a cache hit as the workload demands, and a
/// seeded sample at E ≤ 3 equals the exhaustive oracle too.
pub fn completions(
    inputs: &Inputs,
    records: &[MainRecord],
    cached: bool,
    seed: u64,
    v: &mut Verdict,
) {
    let used = distinct_keys(records);
    let expected = expected_completions(&inputs.fleet, &inputs.keys, &used, 2);
    for r in records.iter().filter(|r| r.status == 200) {
        let key = &inputs.keys[r.key as usize];
        match &expected[&(r.key as usize)] {
            Ok(h) if *h == r.hash && r.cached == cached => {}
            Ok(_) if r.cached != cached => v.fail(format!(
                "{}: cached={} but the workload needs {cached}",
                key.body, r.cached
            )),
            Ok(_) => v.fail(format!(
                "{}: reply differs from the direct engine",
                key.body
            )),
            Err(e) => v.fail(format!("{}: direct engine failed: {e}", key.body)),
        }
    }
    oracle_sample(inputs, &used, &expected, seed, v);
}

/// Keys the exhaustive oracle re-checks per run.
const ORACLE_SAMPLE: usize = 6;
/// Enumeration stops at this many consistent paths; a key with more is
/// skipped, since enumerating it could take longer than the whole run.
const ORACLE_PATHS: usize = 10_000;

fn oracle_sample(
    inputs: &Inputs,
    used: &[usize],
    expected: &HashMap<usize, Result<u64, String>>,
    seed: u64,
    v: &mut Verdict,
) {
    let mut pool: Vec<usize> = used
        .iter()
        .copied()
        .filter(|&k| inputs.keys[k].e <= 3)
        .collect();
    crate::rng::Rng::fork(seed, 3).shuffle(&mut pool);
    let mut checked = 0;
    for &k in &pool {
        if checked == ORACLE_SAMPLE {
            break;
        }
        let key = &inputs.keys[k];
        let fs = &inputs.fleet[key.schema];
        let cfg = CompletionConfig {
            max_results: ORACLE_PATHS,
            ..config(&fs.schema, key.e, key_hubs(&inputs.fleet, key))
        };
        let (root, target) = key.query.split_once('~').expect("keys are root~target");
        let root = fs.schema.class_named(root).expect("query root exists");
        match exhaustive::optimal_via_enumeration(&fs.schema, root, target, &cfg) {
            Ok(o) if Ok(completions_hash(&views(&fs.schema, &o.completions))) == expected[&k] => {}
            Ok(_) => v.fail(format!(
                "{}: engine differs from the exhaustive oracle",
                key.body
            )),
            Err(CompleteError::TooManyResults { .. }) => continue,
            Err(e) => v.fail(format!("{}: oracle failed: {e}", key.body)),
        }
        checked += 1;
    }
    v.oracle_checked += checked as u64;
}

/// The side stream's probes return exactly the two Figure-2 completions;
/// its uploads were acked at the generation they were meant to create.
pub fn side(inputs: &Inputs, side: &[SideRecord], v: &mut Verdict) {
    let schema = &inputs.probe_schema;
    let outcome = direct(schema, PROBE_QUERY, config(schema, 1, &[]));
    let want = match outcome {
        Ok(o) => {
            let views = views(schema, &o.completions);
            let mut texts: Vec<&str> = views.iter().map(|c| c.text.as_str()).collect();
            texts.sort_unstable();
            if texts != FIGURE2 {
                v.fail(format!(
                    "{PROBE_QUERY} gives {texts:?}, not the Figure-2 pair"
                ));
            }
            completions_hash(&views)
        }
        Err(e) => {
            v.fail(format!("{PROBE_QUERY}: {e}"));
            0
        }
    };
    for r in side.iter().filter(|r| r.status == 200) {
        match r.kind {
            SideKind::Probe if r.value != want => {
                v.fail(format!("{PROBE_QUERY} probe reply differs from Figure 2"))
            }
            SideKind::Write { name, generation } if r.value != generation => v.fail(format!(
                "upload of {} acked generation {} instead of {generation}",
                inputs.churn.names[name], r.value
            )),
            _ => {}
        }
    }
}

/// `query_eval`: certain and possible answers equal a naive merge of
/// per-completion `Database::eval_path` results.
pub fn queries(inputs: &Inputs, dbs: &[Database], records: &[MainRecord], v: &mut Verdict) {
    let mut expected: HashMap<usize, Result<u64, String>> = HashMap::new();
    for k in distinct_keys(records) {
        let key = &inputs.keys[k];
        let fs = &inputs.fleet[key.schema];
        let h = direct(
            &fs.schema,
            &key.query,
            config(&fs.schema, key.e, key_hubs(&inputs.fleet, key)),
        )
        .and_then(|o| naive_query_hash(&fs.schema, &dbs[key.schema], &o.completions));
        expected.insert(k, h);
    }
    for r in records.iter().filter(|r| r.status == 200) {
        let key = &inputs.keys[r.key as usize];
        match &expected[&(r.key as usize)] {
            Ok(h) if *h == r.hash && r.cached => {}
            Ok(_) if !r.cached => v.fail(format!(
                "{}: completion set was not served from the cache",
                key.body
            )),
            Ok(_) => v.fail(format!("{}: answers differ from the naive merge", key.body)),
            Err(e) => v.fail(format!("{}: naive evaluation failed: {e}", key.body)),
        }
    }
}

/// Evaluates each completion on its own and merges: an answer is possible
/// when some completion yields it and certain when all do.
pub fn naive_merge(
    db: &Database,
    completions: &[Completion],
) -> Result<(Vec<AnswerView>, u64, u64, u64), String> {
    let mut by_answer: BTreeMap<Answer, Vec<u64>> = BTreeMap::new();
    let mut visited = 0;
    for (i, c) in completions.iter().enumerate() {
        let run = db
            .eval_path(c.root, &c.edges, &EvalLimits::default())
            .map_err(|e| e.to_string())?;
        visited += run.visited;
        let answers: Vec<Answer> = match run.output {
            EvalOutput::Objects(os) => os.into_iter().map(Answer::Object).collect(),
            EvalOutput::Values(vs) => vs.into_iter().map(Answer::Value).collect(),
        };
        for a in answers {
            by_answer.entry(a).or_default().push(i as u64);
        }
    }
    let mut certain = 0;
    let views: Vec<AnswerView> = by_answer
        .into_iter()
        .map(|(answer, from)| {
            let is_certain = from.len() == completions.len();
            certain += u64::from(is_certain);
            let (kind, object, value) = match answer {
                Answer::Object(o) => ("object", Some(o.0 as u64), None),
                Answer::Value(x) => ("value", None, Some(x.to_string())),
            };
            AnswerView {
                kind: kind.to_owned(),
                object,
                value,
                certain: is_certain,
                completions: from,
            }
        })
        .collect();
    let possible = views.len() as u64;
    Ok((views, certain, possible, visited))
}

#[derive(serde::Serialize)]
struct QueryTail {
    completions: Vec<CompletionView>,
    answers: Vec<AnswerView>,
    certain: u64,
    possible: u64,
    visited: u64,
}

fn naive_query_hash(
    schema: &Schema,
    db: &Database,
    completions: &[Completion],
) -> Result<u64, String> {
    let (answers, certain, possible, visited) = naive_merge(db, completions)?;
    let tail = QueryTail {
        completions: views(schema, completions),
        answers,
        certain,
        possible,
        visited,
    };
    let json = serde_json::to_string(&tail).map_err(|e| e.to_string())?;
    Ok(wire::hash(&format!("{},", &json[1..json.len() - 1])))
}

/// `schema_churn` reads: each reply comes from the generation of the last
/// upload acked before the read was sent, or a later one, and equals the
/// direct engine on the variant that generation holds.
pub fn churn_reads(churn: &Churn, records: &[MainRecord], side: &[SideRecord], v: &mut Verdict) {
    // Acks per schema, in time order: (ack offset, generation).
    let mut acks: Vec<Vec<(u64, u64)>> = vec![Vec::new(); churn.names.len()];
    for r in side.iter().filter(|r| r.status == 200) {
        if let SideKind::Write { name, generation } = r.kind {
            acks[name].push((r.op.done, generation));
        }
    }
    let mut expected: HashMap<(usize, usize), Result<u64, String>> = HashMap::new();
    for r in records.iter().filter(|r| r.status == 200) {
        let (name, query, e, body) = &churn.reads[r.key as usize];
        let acked = acks[*name]
            .iter()
            .take_while(|(done, _)| *done < r.sent_ns)
            .last()
            .map_or(1, |&(_, g)| g);
        if r.generation < acked {
            v.fail(format!(
                "{body}: read generation {} after generation {acked} was acked",
                r.generation
            ));
            continue;
        }
        let variant = ((r.generation.max(1) - 1) % 2) as usize;
        let want = expected
            .entry((r.key as usize, variant))
            .or_insert_with(|| {
                let schema = &churn.schemas[*name][variant];
                direct(schema, query, config(schema, *e, &[]))
                    .map(|o| completions_hash(&views(schema, &o.completions)))
            });
        match want {
            Ok(h) if *h == r.hash => {}
            Ok(_) => v.fail(format!(
                "{body}: reply differs from the direct engine on generation {}",
                r.generation
            )),
            Err(e) => v.fail(format!("{body}: direct engine failed: {e}")),
        }
    }
}

/// Last acked generation of every churn schema.
pub fn last_acked(churn: &Churn, side: &[SideRecord]) -> Vec<u64> {
    let mut last = vec![1u64; churn.names.len()];
    for r in side.iter().filter(|r| r.status == 200) {
        if let SideKind::Write { name, generation } = r.kind {
            last[name] = last[name].max(generation);
        }
    }
    last
}
