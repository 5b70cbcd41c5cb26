//! Wire types of the JSON API: request bodies, response bodies, and the
//! translation from a [`CompleteRequest`] into an engine
//! [`CompletionConfig`].

use ipe_core::{CompletionConfig, Pruning, SearchOutcome, SearchStats};
use ipe_schema::Schema;

/// Body of `POST /v1/complete`. Only `query` is required; everything else
/// falls back to the engine defaults against the `default` schema.
#[derive(Debug, serde::Deserialize)]
pub struct CompleteRequest {
    /// Registry name of the schema to complete against (default
    /// `"default"`).
    #[serde(default)]
    pub schema: String,
    /// The (possibly incomplete) path expression text.
    pub query: String,
    /// The `E` parameter of `AGG*`; must be ≥ 1 when given.
    #[serde(default)]
    pub e: Option<u64>,
    /// Class names that must not appear in any completion.
    #[serde(default)]
    pub exclude: Vec<String>,
    /// Branch-and-bound mode: `none`, `paper`, `paper-no-caution`, or
    /// `safe` (the default).
    #[serde(default)]
    pub pruning: Option<String>,
    /// Order label-tied completions most-specific-first.
    #[serde(default)]
    pub prefer_specific: bool,
    /// Require the schema to be at least at this generation; a lagging
    /// follower answers `409` (retryable) instead of serving stale state.
    #[serde(default)]
    pub min_generation: Option<u64>,
}

impl CompleteRequest {
    /// The registry name to use, applying the `"default"` fallback.
    pub fn schema_name(&self) -> &str {
        schema_or_default(&self.schema)
    }

    /// Builds the engine configuration, resolving class names against
    /// `schema`. Errors are user-facing 400 messages.
    pub fn config(&self, schema: &Schema) -> Result<CompletionConfig, String> {
        build_config(
            self.e,
            self.pruning.as_deref(),
            &self.exclude,
            self.prefer_specific,
            schema,
        )
    }
}

/// A request's `schema` field, with `""` meaning `"default"`.
fn schema_or_default(schema: &str) -> &str {
    if schema.is_empty() {
        "default"
    } else {
        schema
    }
}

/// Shared `CompletionConfig` construction for the single and batch
/// endpoints. Errors are user-facing 400 messages.
fn build_config(
    e: Option<u64>,
    pruning: Option<&str>,
    exclude: &[String],
    prefer_specific: bool,
    schema: &Schema,
) -> Result<CompletionConfig, String> {
    let mut cfg = CompletionConfig::default();
    if let Some(e) = e {
        if e == 0 {
            return Err("`e` must be >= 1".to_owned());
        }
        cfg.e = e as usize;
    }
    if let Some(p) = pruning {
        cfg.pruning = match p {
            "none" => Pruning::None,
            "paper" => Pruning::Paper,
            "paper-no-caution" => Pruning::PaperNoCaution,
            "safe" => Pruning::Safe,
            other => return Err(format!("unknown pruning mode `{other}`")),
        };
    }
    for name in exclude {
        let class = schema
            .class_named(name)
            .ok_or_else(|| format!("unknown class `{name}` in `exclude`"))?;
        cfg.excluded_classes.push(class);
    }
    cfg.prefer_specific = prefer_specific;
    Ok(cfg)
}

/// Body of `POST /v1/complete/batch`. The configuration knobs apply to
/// every query; `queries` is capped server-side (see the endpoint docs).
#[derive(Debug, serde::Deserialize)]
pub struct BatchCompleteRequest {
    /// Registry name of the schema to complete against (default
    /// `"default"`).
    #[serde(default)]
    pub schema: String,
    /// The (possibly incomplete) path expression texts, completed in
    /// parallel.
    pub queries: Vec<String>,
    /// The `E` parameter of `AGG*`; must be ≥ 1 when given.
    #[serde(default)]
    pub e: Option<u64>,
    /// Class names that must not appear in any completion.
    #[serde(default)]
    pub exclude: Vec<String>,
    /// Branch-and-bound mode: `none`, `paper`, `paper-no-caution`, or
    /// `safe` (the default).
    #[serde(default)]
    pub pruning: Option<String>,
    /// Order label-tied completions most-specific-first.
    #[serde(default)]
    pub prefer_specific: bool,
    /// Require the schema to be at least at this generation; a lagging
    /// follower answers `409` (retryable) instead of serving stale state.
    #[serde(default)]
    pub min_generation: Option<u64>,
    /// Per-item wall-clock budget in milliseconds. Defaults to the
    /// server's configured budget; capped at 60 000.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Worker threads for this batch. Defaults to the server's configured
    /// `batch_threads`; capped at 16.
    #[serde(default)]
    pub threads: Option<u64>,
}

impl BatchCompleteRequest {
    /// The registry name to use, applying the `"default"` fallback.
    pub fn schema_name(&self) -> &str {
        schema_or_default(&self.schema)
    }

    /// Builds the engine configuration shared by every item in the batch.
    pub fn config(&self, schema: &Schema) -> Result<CompletionConfig, String> {
        build_config(
            self.e,
            self.pruning.as_deref(),
            &self.exclude,
            self.prefer_specific,
            schema,
        )
    }
}

/// One query's outcome in a [`BatchCompleteResponse`], in submission
/// order.
#[derive(Debug, serde::Serialize)]
pub struct BatchItemView {
    /// The normalized query text (the raw input if it failed to parse).
    pub query: String,
    /// `"ok"`, `"error"`, or `"deadline_exceeded"`.
    pub status: String,
    /// Whether this item's result came from the completion cache.
    pub cached: bool,
    /// Wall-clock time this item spent in the engine (0 for cache hits
    /// and parse failures).
    pub duration_ns: u64,
    /// The error message when `status` is not `"ok"`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// The optimal completions, best first (empty unless `status` is
    /// `"ok"`).
    pub completions: Vec<CompletionView>,
}

/// Body of a successful `POST /v1/complete/batch` response. The HTTP
/// status is `200` even when individual items failed; per-item `status`
/// carries the outcome.
#[derive(Debug, serde::Serialize)]
pub struct BatchCompleteResponse {
    /// Registry name the batch ran against.
    pub schema: String,
    /// Schema generation the results belong to.
    pub generation: u64,
    /// Per-item deadline that applied, in milliseconds (0 = unlimited).
    pub deadline_ms: u64,
    /// Worker threads the batch ran on.
    pub threads: u64,
    /// Whole-batch wall clock (parse + cache probes + parallel search).
    pub wall_ns: u64,
    /// Items that hit their deadline.
    pub deadline_hits: u64,
    /// One outcome per submitted query, in submission order.
    pub items: Vec<BatchItemView>,
}

/// One completion in a [`CompleteResponse`].
#[derive(Debug, serde::Serialize)]
pub struct CompletionView {
    /// The complete path expression in the paper's textual syntax.
    pub text: String,
    /// The path label's connector.
    pub connector: String,
    /// The path label's semantic length.
    pub semlen: u64,
    /// Number of relationships traversed.
    pub edges: u64,
}

/// Renders a search outcome's completions into wire form.
pub(crate) fn completion_views(schema: &Schema, outcome: &SearchOutcome) -> Vec<CompletionView> {
    outcome
        .completions
        .iter()
        .map(|c| CompletionView {
            text: c.display(schema).to_string(),
            connector: c.label.connector.to_string(),
            semlen: c.label.semlen as u64,
            edges: c.edges.len() as u64,
        })
        .collect()
}

/// Body of a successful `POST /v1/complete` response.
///
/// The server writes this body in two pieces: the first five fields per
/// request and the last two cached with the completion set
/// ([`CachedReply`](crate::cache::CachedReply)), so `completions` and
/// `stats` must stay last.
#[derive(Debug, serde::Serialize)]
pub struct CompleteResponse {
    /// Registry name the completion ran against.
    pub schema: String,
    /// Schema generation the result belongs to.
    pub generation: u64,
    /// The normalized query text (the cache key's form).
    pub query: String,
    /// Whether the result came from the completion cache.
    pub cached: bool,
    /// Server-side compute time in nanoseconds: registry lookup, parse,
    /// cache probe, and (on a miss) the full search and the one-time
    /// encoding of the completions it caches. Excludes HTTP framing and
    /// the per-request part of the body, so cold-vs-warm comparisons
    /// measure the engine, not the socket.
    pub duration_ns: u64,
    /// The optimal completions, best first.
    pub completions: Vec<CompletionView>,
    /// Search counters of the run that produced the result (cached
    /// responses repeat the original run's counters).
    pub stats: SearchStats,
}

impl CompleteResponse {
    /// The body up to and including the comma before `completions`:
    /// the per-request fields, written with the serializer's own string
    /// escaping. [`CompleteResponse::encode_tail`] finishes it.
    pub(crate) fn encode_head(
        schema: &str,
        generation: u64,
        query: &str,
        cached: bool,
        duration_ns: u64,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96 + schema.len() + query.len());
        out.push_str("{\"schema\":");
        serde_json::write_escaped(&mut out, schema);
        let _ = write!(out, ",\"generation\":{generation},\"query\":");
        serde_json::write_escaped(&mut out, query);
        let _ = write!(out, ",\"cached\":{cached},\"duration_ns\":{duration_ns},");
        out
    }

    /// The body's last two fields and closing brace,
    /// `"completions":[…],"stats":{…}}`, encoded by serializing just
    /// those fields — the bytes a whole-response serialization writes.
    pub(crate) fn encode_tail(schema: &Schema, outcome: &SearchOutcome) -> String {
        #[derive(serde::Serialize)]
        struct Tail {
            completions: Vec<CompletionView>,
            stats: SearchStats,
        }
        let tail = Tail {
            completions: completion_views(schema, outcome),
            stats: outcome.stats,
        };
        let json = serde_json::to_string(&tail).expect("the vendored serializer is infallible");
        json.strip_prefix('{').unwrap_or(&json).to_owned()
    }
}

/// Body of `PUT /v1/schemas/:name` responses.
#[derive(Debug, serde::Serialize)]
pub struct SchemaPutResponse {
    /// Registry name.
    pub name: String,
    /// Stable registry id.
    pub id: u64,
    /// Generation after this upload (1 for a new name).
    pub generation: u64,
    /// Cache entries of older generations dropped by the upload.
    pub purged_cache_entries: u64,
}

/// Body of `DELETE /v1/schemas/:name` responses.
#[derive(Debug, serde::Serialize)]
pub struct SchemaDeleteResponse {
    /// Registry name that was removed.
    pub name: String,
    /// The removed schema's stable registry id.
    pub id: u64,
    /// Generation the schema was at when removed.
    pub generation: u64,
    /// Cache entries of the removed schema dropped by the delete.
    pub purged_cache_entries: u64,
    /// Whether the delete also dropped a loaded data registry instance.
    pub purged_data: bool,
}

/// Body of `PUT /v1/data/:schema`: either an explicit bulk spec
/// (objects/links/attrs, see [`ipe_query::DataSpec`]) or a synthetic
/// generation request (`gen`), not both.
#[derive(Debug, Default, serde::Deserialize)]
pub struct DataPutRequest {
    /// Synthetic generation knobs; when present the explicit sections
    /// must be empty.
    #[serde(default)]
    pub gen: Option<ipe_gen::DataGenConfig>,
    /// Objects to create (explicit load).
    #[serde(default)]
    pub objects: Vec<ipe_query::ObjectSpec>,
    /// Links to store (explicit load).
    #[serde(default)]
    pub links: Vec<ipe_query::LinkSpec>,
    /// Attribute values to set (explicit load).
    #[serde(default)]
    pub attrs: Vec<ipe_query::AttrSpec>,
}

impl DataPutRequest {
    /// The explicit sections as a [`ipe_query::DataSpec`].
    pub fn spec(&self) -> ipe_query::DataSpec {
        ipe_query::DataSpec {
            objects: self.objects.clone(),
            links: self.links.clone(),
            attrs: self.attrs.clone(),
        }
    }
}

/// Body of `PUT /v1/data/:schema` (and `GET /v1/data/:schema`) responses.
#[derive(Debug, serde::Serialize)]
pub struct DataPutResponse {
    /// Registry name of the schema the data belongs to.
    pub schema: String,
    /// The schema generation the data was loaded against.
    pub schema_generation: u64,
    /// Load counter for this name (1 for the first load).
    pub data_generation: u64,
    /// `"spec"` or `"gen"`.
    pub source: String,
    /// Objects in the loaded instance.
    pub objects: u64,
    /// Stored link instances (inverses included).
    pub links: u64,
    /// Stored attribute values.
    pub attrs: u64,
}

/// Body of `DELETE /v1/data/:schema` responses.
#[derive(Debug, serde::Serialize)]
pub struct DataDeleteResponse {
    /// Registry name whose data was dropped.
    pub schema: String,
    /// Data generation at removal.
    pub data_generation: u64,
}

/// Body of `POST /v1/query`. Extends the completion knobs of
/// [`CompleteRequest`] with evaluation controls.
#[derive(Debug, serde::Deserialize)]
pub struct QueryRequest {
    /// Registry name of the schema to query (default `"default"`).
    #[serde(default)]
    pub schema: String,
    /// The (possibly incomplete) path expression text.
    pub query: String,
    /// The `E` parameter of `AGG*`; must be ≥ 1 when given.
    #[serde(default)]
    pub e: Option<u64>,
    /// Class names that must not appear in any completion.
    #[serde(default)]
    pub exclude: Vec<String>,
    /// Branch-and-bound mode: `none`, `paper`, `paper-no-caution`, or
    /// `safe` (the default).
    #[serde(default)]
    pub pruning: Option<String>,
    /// Order label-tied completions most-specific-first.
    #[serde(default)]
    pub prefer_specific: bool,
    /// Require the schema to be at least at this generation; a lagging
    /// follower answers `409` (retryable) instead of serving stale state.
    #[serde(default)]
    pub min_generation: Option<u64>,
    /// Wall-clock budget in milliseconds across disambiguation and
    /// evaluation. Defaults to the server's query budget; capped at
    /// 60 000.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Return only the certain answers (every completion agrees).
    #[serde(default)]
    pub certain_only: bool,
}

impl QueryRequest {
    /// The registry name to use, applying the `"default"` fallback.
    pub fn schema_name(&self) -> &str {
        schema_or_default(&self.schema)
    }

    /// Builds the engine configuration, resolving class names against
    /// `schema`. Errors are user-facing 400 messages.
    pub fn config(&self, schema: &Schema) -> Result<CompletionConfig, String> {
        build_config(
            self.e,
            self.pruning.as_deref(),
            &self.exclude,
            self.prefer_specific,
            schema,
        )
    }
}

/// One answer in a [`QueryResponse`].
#[derive(Debug, serde::Serialize)]
pub struct AnswerView {
    /// `"object"` or `"value"`.
    pub kind: String,
    /// The object id when `kind` is `"object"`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub object: Option<u64>,
    /// The rendered value when `kind` is `"value"`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub value: Option<String>,
    /// Whether every evaluated completion produced this answer.
    pub certain: bool,
    /// Provenance: indices into the response's `completions` list of the
    /// completions that produced this answer. Sorted, nonempty.
    pub completions: Vec<u64>,
}

/// Body of a successful `POST /v1/query` response.
#[derive(Debug, serde::Serialize)]
pub struct QueryResponse {
    /// Registry name the query ran against.
    pub schema: String,
    /// Schema generation the result belongs to.
    pub generation: u64,
    /// Data generation the result was evaluated on.
    pub data_generation: u64,
    /// The normalized query text.
    pub query: String,
    /// The `E` the query ran at.
    pub e: u64,
    /// Whether the completion set came from the completion cache.
    pub cached: bool,
    /// Server-side compute time in nanoseconds (lookup, parse, search or
    /// cache probe, evaluation, merge).
    pub duration_ns: u64,
    /// The evaluated completions, best first.
    pub completions: Vec<CompletionView>,
    /// The merged answers with provenance (only the certain ones when the
    /// request set `certain_only`).
    pub answers: Vec<AnswerView>,
    /// Number of certain answers.
    pub certain: u64,
    /// Number of possible answers (before any `certain_only` filter).
    pub possible: u64,
    /// Objects visited across all per-completion evaluations.
    pub visited: u64,
    /// Search counters of the run that produced the completion set.
    pub stats: SearchStats,
}

/// Uniform error body for every non-2xx response.
pub fn error_body(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 12);
    out.push_str("{\"error\": ");
    ipe_obs::json::push_str_literal(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_schema::fixtures;

    #[test]
    fn minimal_request_parses_with_defaults() {
        let req: CompleteRequest = serde_json::from_str(r#"{"query": "ta~name"}"#).unwrap();
        assert_eq!(req.schema_name(), "default");
        assert_eq!(req.query, "ta~name");
        let cfg = req.config(&fixtures::university()).unwrap();
        assert_eq!(cfg.e, 1);
        assert_eq!(cfg.pruning, Pruning::Safe);
        assert!(cfg.excluded_classes.is_empty());
    }

    #[test]
    fn full_request_round_trips_into_config() {
        let req: CompleteRequest = serde_json::from_str(
            r#"{"schema": "uni", "query": "ta~name", "e": 2,
                "exclude": ["person"], "pruning": "paper", "prefer_specific": true}"#,
        )
        .unwrap();
        assert_eq!(req.schema_name(), "uni");
        let schema = fixtures::university();
        let cfg = req.config(&schema).unwrap();
        assert_eq!(cfg.e, 2);
        assert_eq!(cfg.pruning, Pruning::Paper);
        assert_eq!(
            cfg.excluded_classes,
            vec![schema.class_named("person").unwrap()]
        );
        assert!(cfg.prefer_specific);
    }

    #[test]
    fn bad_requests_are_rejected() {
        let schema = fixtures::university();
        let zero_e: CompleteRequest = serde_json::from_str(r#"{"query": "q", "e": 0}"#).unwrap();
        assert!(zero_e.config(&schema).is_err());
        let bad_class: CompleteRequest =
            serde_json::from_str(r#"{"query": "q", "exclude": ["nope"]}"#).unwrap();
        assert!(bad_class.config(&schema).is_err());
        let bad_pruning: CompleteRequest =
            serde_json::from_str(r#"{"query": "q", "pruning": "wild"}"#).unwrap();
        assert!(bad_pruning.config(&schema).is_err());
    }

    #[test]
    fn error_body_escapes() {
        assert_eq!(error_body("a\"b"), "{\"error\": \"a\\\"b\"}");
    }
}
