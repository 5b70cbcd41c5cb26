//! End-to-end tests of the query subsystem over a real socket: data
//! loading, provenance-annotated answers, warm/cold identity, and every
//! error status of `POST /v1/query`.

use ipe_schema::fixtures;
use ipe_service::{Client, Server, ServiceConfig};
use serde::Value;
use std::time::Duration;

/// A small test server on an ephemeral port, with the university fixture
/// preloaded as `default`.
fn start_server() -> (Server, Client) {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 4,
        queue_depth: 16,
        request_timeout: Duration::from_secs(5),
        batch_threads: 2,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    server
        .state()
        .registry
        .insert("default", fixtures::university());
    let client = Client::new(server.addr().to_string());
    (server, client)
}

fn get(v: &Value, key: &str) -> Value {
    v.get(key)
        .unwrap_or_else(|| panic!("missing key {key}"))
        .clone()
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::I64(i) => *i as u64,
        Value::U64(u) => *u,
        other => panic!("expected number, got {other:?}"),
    }
}

/// Loads a tiny explicit university instance: Alice the TA takes the
/// Databases course, which Yannis teaches; names are set so attribute
/// answers are observable.
fn put_small_data(client: &mut Client) {
    let spec = r#"{
      "objects": [
        {"id": "alice", "class": "ta"},
        {"id": "yannis", "class": "professor"},
        {"id": "db101", "class": "course"}
      ],
      "links": [
        {"from": "alice", "rel": "take", "to": "db101"},
        {"from": "db101", "rel": "teacher", "to": "yannis"}
      ],
      "attrs": [
        {"of": "alice", "attr": "name", "value": "Alice"},
        {"of": "yannis", "attr": "name", "value": "Yannis"},
        {"of": "db101", "attr": "name", "value": "Databases"}
      ]
    }"#;
    let (status, body) = client.request("PUT", "/v1/data/default", spec).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_u64(&get(&v, "objects")), 3);
    assert_eq!(get(&v, "source"), Value::Str("spec".to_owned()));
}

#[test]
fn data_round_trip_and_info() {
    let (server, mut client) = start_server();
    put_small_data(&mut client);
    let (status, body) = client.request("GET", "/v1/data/default", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_u64(&get(&v, "data_generation")), 1);
    // Reload bumps the data generation.
    put_small_data(&mut client);
    let (_, body) = client.request("GET", "/v1/data/default", "").unwrap();
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_u64(&get(&v, "data_generation")), 2);
    // Delete drops it.
    let (status, _) = client.request("DELETE", "/v1/data/default", "").unwrap();
    assert_eq!(status, 200);
    let (status, _) = client.request("GET", "/v1/data/default", "").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn gen_data_load_works_and_oversize_is_413() {
    let (server, mut client) = start_server();
    let (status, body) = client
        .request("PUT", "/v1/data/default", r#"{"gen": {"seed": 7}}"#)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(get(&v, "source"), Value::Str("gen".to_owned()));
    assert!(as_u64(&get(&v, "objects")) > 0);
    // A generation request projecting past the cap is refused up front.
    let (status, body) = client
        .request(
            "PUT",
            "/v1/data/default",
            r#"{"gen": {"objects_per_class": 999999999}}"#,
        )
        .unwrap();
    assert_eq!(status, 413, "{body}");
    server.shutdown();
}

/// The acceptance-criteria scenario: an incomplete expression at E=3
/// over loaded data returns answers partitioned certain/possible with
/// per-answer completion provenance, identical warm and cold.
#[test]
fn query_e3_partitions_answers_with_provenance() {
    let (server, mut client) = start_server();
    put_small_data(&mut client);
    let req = r#"{"query": "ta ~ name", "e": 3}"#;
    let (status, cold) = client.request("POST", "/v1/query", req).unwrap();
    assert_eq!(status, 200, "{cold}");
    let v = serde_json::parse_value_text(&cold).unwrap();
    assert_eq!(get(&v, "cached"), Value::Bool(false));
    assert_eq!(as_u64(&get(&v, "e")), 3);
    let Value::Seq(completions) = get(&v, "completions") else {
        panic!("completions is not an array: {cold}");
    };
    assert!(completions.len() >= 2, "{cold}");
    let Value::Seq(answers) = get(&v, "answers") else {
        panic!("answers is not an array: {cold}");
    };
    assert!(!answers.is_empty(), "{cold}");
    let certain = as_u64(&get(&v, "certain"));
    let possible = as_u64(&get(&v, "possible"));
    assert!(certain <= possible);
    assert_eq!(answers.len() as u64, possible);
    // "Alice" comes from both optimal readings of ta~name, so it is
    // certain; its provenance lists multiple completions.
    let alice = answers
        .iter()
        .find(|a| get(a, "value") == Value::Str("Alice".to_owned()))
        .unwrap_or_else(|| panic!("no Alice answer: {cold}"));
    assert_eq!(get(alice, "certain"), Value::Bool(true));
    let Value::Seq(prov) = get(alice, "completions") else {
        panic!("provenance is not an array");
    };
    assert!(prov.len() >= 2, "{cold}");
    // Every answer's provenance is nonempty and in range.
    for a in &answers {
        let Value::Seq(p) = get(a, "completions") else {
            panic!("provenance is not an array");
        };
        assert!(!p.is_empty());
        assert!(p.iter().all(|i| (as_u64(i) as usize) < completions.len()));
    }

    // Warm: identical answers, served from the completion cache.
    let (status, warm) = client.request("POST", "/v1/query", req).unwrap();
    assert_eq!(status, 200, "{warm}");
    let w = serde_json::parse_value_text(&warm).unwrap();
    assert_eq!(get(&w, "cached"), Value::Bool(true));
    assert_eq!(get(&w, "answers"), get(&v, "answers"));
    assert_eq!(get(&w, "completions"), get(&v, "completions"));
    assert_eq!(as_u64(&get(&w, "certain")), certain);
    assert_eq!(as_u64(&get(&w, "possible")), possible);
    server.shutdown();
}

#[test]
fn certain_only_filters_answers() {
    let (server, mut client) = start_server();
    put_small_data(&mut client);
    let (status, body) = client
        .request(
            "POST",
            "/v1/query",
            r#"{"query": "ta ~ name", "e": 3, "certain_only": true}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    let Value::Seq(answers) = get(&v, "answers") else {
        panic!("answers is not an array: {body}");
    };
    assert_eq!(answers.len() as u64, as_u64(&get(&v, "certain")));
    assert!(answers
        .iter()
        .all(|a| get(a, "certain") == Value::Bool(true)));
    // `possible` still reports the unfiltered count.
    assert!(as_u64(&get(&v, "possible")) >= answers.len() as u64);
    server.shutdown();
}

#[test]
fn query_unknown_schema_is_404() {
    let (server, mut client) = start_server();
    let (status, body) = client
        .request(
            "POST",
            "/v1/query",
            r#"{"schema": "nope", "query": "ta~name"}"#,
        )
        .unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("no schema named"), "{body}");
    // Known schema but no data loaded: also 404, with a hint.
    let (status, body) = client
        .request("POST", "/v1/query", r#"{"query": "ta~name"}"#)
        .unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("no data loaded"), "{body}");
    server.shutdown();
}

#[test]
fn query_stale_data_after_schema_put_is_409() {
    let (server, mut client) = start_server();
    put_small_data(&mut client);
    // Hot-swap the schema: generation bumps, loaded data goes stale.
    let schema_json = fixtures::university().to_json();
    let (status, body) = client
        .request("PUT", "/v1/schemas/default", &schema_json)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client
        .request("POST", "/v1/query", r#"{"query": "ta~name"}"#)
        .unwrap();
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("generation"), "{body}");
    // Re-PUT of the data against the new generation clears the conflict.
    put_small_data(&mut client);
    let (status, body) = client
        .request("POST", "/v1/query", r#"{"query": "ta~name"}"#)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn query_complete_expression_with_e_gt_1_is_422() {
    let (server, mut client) = start_server();
    put_small_data(&mut client);
    let (status, body) = client
        .request(
            "POST",
            "/v1/query",
            r#"{"query": "student.take.teacher", "e": 2}"#,
        )
        .unwrap();
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("already complete"), "{body}");
    // The same complete expression at e=1 evaluates fine.
    let (status, body) = client
        .request("POST", "/v1/query", r#"{"query": "student.take.teacher"}"#)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_u64(&get(&v, "certain")), as_u64(&get(&v, "possible")));
    server.shutdown();
}

#[test]
fn bad_bodies_and_unparsable_queries_are_400() {
    let (server, mut client) = start_server();
    put_small_data(&mut client);
    let (status, _) = client.request("POST", "/v1/query", "not json").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client
        .request("POST", "/v1/query", r#"{"query": "ta~~"}"#)
        .unwrap();
    assert_eq!(status, 400);
    let (status, _) = client
        .request("POST", "/v1/query", r#"{"query": "ta~name", "e": 0}"#)
        .unwrap();
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn bad_data_specs_are_rejected() {
    let (server, mut client) = start_server();
    // Unknown class in the spec: 422 from the loader.
    let (status, body) = client
        .request(
            "PUT",
            "/v1/data/default",
            r#"{"objects": [{"id": "x", "class": "wizard"}]}"#,
        )
        .unwrap();
    assert_eq!(status, 422, "{body}");
    // Unknown schema name: 404 before any loading.
    let (status, _) = client
        .request("PUT", "/v1/data/nope", r#"{"objects": []}"#)
        .unwrap();
    assert_eq!(status, 404);
    // gen + explicit sections are mutually exclusive: 400.
    let (status, body) = client
        .request(
            "PUT",
            "/v1/data/default",
            r#"{"gen": {"seed": 1}, "objects": [{"id": "a", "class": "ta"}]}"#,
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    server.shutdown();
}

/// The gen'd-data acceptance path: synthetic load, then an E-sweep whose
/// possible set grows (or holds) and certain set shrinks (or holds).
#[test]
fn gen_data_e_sweep_is_monotone() {
    let (server, mut client) = start_server();
    let (status, body) = client
        .request(
            "PUT",
            "/v1/data/default",
            r#"{"gen": {"objects_per_class": 4, "links_per_rel": 6, "seed": 11}}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let mut prev_possible = 0u64;
    let mut prev_certain = u64::MAX;
    for e in 1..=4u64 {
        let req = format!("{{\"query\": \"ta ~ name\", \"e\": {e}}}");
        let (status, body) = client.request("POST", "/v1/query", &req).unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::parse_value_text(&body).unwrap();
        let possible = as_u64(&get(&v, "possible"));
        let certain = as_u64(&get(&v, "certain"));
        assert!(certain <= possible);
        assert!(possible > 0, "e={e} produced no possible answers");
        assert!(possible >= prev_possible, "possible monotone in E");
        assert!(certain <= prev_certain, "certain antitone in E");
        prev_possible = possible;
        prev_certain = certain;
    }
    server.shutdown();
}
