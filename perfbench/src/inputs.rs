//! The generated inputs of every workload, all derived from `--seed`.
//!
//! * A *fleet* of CUPID-calibrated schemas (`ipe_gen::cupid_like`), each
//!   with its planted-intent queries (`ipe_gen::generate_workload`). A run
//!   spreads its keys over many schemas so that one seed's schema shapes do
//!   not set the figures.
//! * The *side* inputs every workload shares: the university fixture for
//!   the warm `ta~name` probe, and a few small generated schemas, each in
//!   two variants, that the open-loop writer re-uploads.

use crate::rng::Rng;
use ipe_gen::{cupid_like, generate_schema, generate_workload, GenConfig, WorkloadConfig};
use ipe_schema::{RelKind, Schema, SchemaDoc};

/// One schema of a fleet, as uploaded and as the checks rebuild it.
pub struct FleetSchema {
    pub name: String,
    pub json: String,
    /// Parsed back from `json`, so ids match the server's copy exactly.
    pub schema: Schema,
    pub hub_names: Vec<String>,
    pub queries: Vec<ipe_gen::QuerySpec>,
}

/// One request key: a query against a fleet schema under one config.
#[derive(Clone, Debug)]
pub struct Key {
    pub schema: usize,
    pub query: String,
    pub e: u64,
    pub exclude_hubs: bool,
    /// The JSON body sent for this key.
    pub body: String,
}

pub fn fleet(seed: u64, schemas: usize, queries: usize) -> Vec<FleetSchema> {
    let mut rng = Rng::fork(seed, 1);
    (0..schemas)
        .map(|i| {
            let schema_seed = rng.next_u64();
            let gen = cupid_like(schema_seed);
            let queries = generate_workload(
                &gen,
                &WorkloadConfig {
                    queries,
                    seed: rng.next_u64(),
                    ..Default::default()
                },
            );
            let json = gen.schema.to_json();
            let schema = Schema::from_json(&json).expect("generated schema round-trips");
            FleetSchema {
                name: format!("cupid{i}"),
                hub_names: gen
                    .hubs
                    .iter()
                    .map(|&h| gen.schema.class_name(h).to_owned())
                    .collect(),
                json,
                schema,
                queries,
            }
        })
        .collect()
}

/// Every (query, E, hub exclusion) combination over a fleet.
pub fn keys(fleet: &[FleetSchema], es: &[u64], exclusions: &[bool]) -> Vec<Key> {
    let mut out = Vec::new();
    for (s, fs) in fleet.iter().enumerate() {
        for q in &fs.queries {
            for &e in es {
                for &exclude_hubs in exclusions {
                    out.push(Key {
                        schema: s,
                        query: q.expr.clone(),
                        e,
                        exclude_hubs,
                        body: request_body(
                            &fs.name,
                            &q.expr,
                            e,
                            exclude_hubs.then_some(&fs.hub_names[..]),
                        ),
                    });
                }
            }
        }
    }
    out
}

pub fn request_body(schema: &str, query: &str, e: u64, exclude: Option<&[String]>) -> String {
    let mut body = format!("{{\"schema\":\"{schema}\",\"query\":\"{query}\",\"e\":{e}");
    if let Some(names) = exclude {
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        body.push_str(&format!(",\"exclude\":[{}]", quoted.join(",")));
    }
    body.push('}');
    body
}

/// Tenant that owns the side stream's schemas, so its cache traffic is
/// counted apart from the workload's own.
pub const SIDE_TENANT: &str = "side";
/// The side tenant's warm probe: the paper's Figure-2 query.
pub const PROBE_SCHEMA: &str = "probe";
pub const PROBE_QUERY: &str = "ta~name";
pub const FIGURE2: [&str; 2] = [
    "ta@>grad@>student@>person.name",
    "ta@>instructor@>teacher@>employee@>person.name",
];

/// Classes of each re-uploaded schema: big enough to exercise every part
/// of a schema upload, small enough that the writer can keep its rate.
const CHURN_CLASSES: usize = 8;
pub const CHURN_SCHEMAS: usize = 6;
/// Read queries per churn schema; each is read at E = 1 and E = 3.
const CHURN_QUERIES: usize = 24;

/// The schemas the side writer re-uploads, each in two variants, and the
/// read keys that are valid on both.
pub struct Churn {
    pub names: Vec<String>,
    /// `variants[i][v]`: the JSON of variant `v` of schema `i`. Uploads
    /// alternate A, B, A, ... starting at generation 1, so a generation's
    /// parity names its variant.
    pub variants: Vec<[String; 2]>,
    pub schemas: Vec<[Schema; 2]>,
    /// `(schema index, query, e, body)`.
    pub reads: Vec<(usize, String, u64, String)>,
}

pub fn churn(seed: u64) -> Churn {
    let mut rng = Rng::fork(seed, 2);
    let mut out = Churn {
        names: Vec::new(),
        variants: Vec::new(),
        schemas: Vec::new(),
        reads: Vec::new(),
    };
    for i in 0..CHURN_SCHEMAS {
        let gen = generate_schema(&GenConfig {
            classes: CHURN_CLASSES,
            hub_degree: 6,
            seed: rng.next_u64(),
            ..GenConfig::default()
        });
        let a = gen.schema.to_json();
        // Variant B adds one association, which can open new routes and so
        // change answers: a read served from the wrong variant shows.
        let mut doc = SchemaDoc::from_schema(&gen.schema);
        let classes: Vec<String> = doc
            .classes
            .iter()
            .filter(|c| c.primitive.is_none())
            .map(|c| c.name.clone())
            .collect();
        let from = classes[rng.below(classes.len())].clone();
        let to = classes[rng.below(classes.len())].clone();
        let mut link = doc.rels[0].clone();
        link.source = from;
        link.target = to;
        link.kind = RelKind::Assoc;
        link.name = "churn_link".to_owned();
        link.inverse_name = Some("churn_link_of".to_owned());
        doc.rels.push(link);
        let b = serde_json::to_string_pretty(&doc).expect("schema doc serializes");
        let parsed = [
            Schema::from_json(&a).expect("variant A is valid"),
            Schema::from_json(&b).expect("variant B is valid"),
        ];
        let name = format!("churn{i}");
        let queries = generate_workload(
            &gen,
            &WorkloadConfig {
                queries: CHURN_QUERIES,
                min_answer_len: 3,
                seed: rng.next_u64(),
                ..Default::default()
            },
        );
        for q in &queries {
            for e in [1u64, 3] {
                out.reads
                    .push((i, q.expr.clone(), e, request_body(&name, &q.expr, e, None)));
            }
        }
        out.names.push(name);
        out.variants.push([a, b]);
        out.schemas.push(parsed);
    }
    out
}

/// Everything one run sends, derived from its seed.
pub struct Inputs {
    pub fleet: Vec<FleetSchema>,
    /// The main stream's keys (fleet workloads), in the order they are
    /// drawn from.
    pub keys: Vec<Key>,
    pub churn: Churn,
    pub probe_json: String,
    pub probe_schema: Schema,
    /// The generated instance loaded for each fleet schema (`query_eval`).
    pub data: Option<ipe_gen::DataGenConfig>,
}

/// Sizes of one workload's inputs.
pub struct Plan {
    pub schemas: usize,
    pub queries_per_schema: usize,
    pub es: &'static [u64],
    pub exclusions: &'static [bool],
    pub objects_per_class: Option<u64>,
    pub links_per_rel: Option<u64>,
}

pub fn plan(w: crate::Workload) -> Plan {
    use crate::Workload::*;
    match w {
        WarmComplete => Plan {
            schemas: 32,
            queries_per_schema: 20,
            es: &[1, 3],
            exclusions: &[false],
            objects_per_class: None,
            links_per_rel: None,
        },
        ColdSearch => Plan {
            schemas: 24,
            queries_per_schema: 100,
            es: &[1, 3, 5],
            exclusions: &[false, true],
            objects_per_class: None,
            links_per_rel: None,
        },
        QueryEval => Plan {
            schemas: 16,
            queries_per_schema: 20,
            es: &[1, 3],
            exclusions: &[false],
            objects_per_class: Some(30),
            links_per_rel: Some(60),
        },
        SchemaChurn => Plan {
            schemas: 0,
            queries_per_schema: 0,
            es: &[],
            exclusions: &[],
            objects_per_class: None,
            links_per_rel: None,
        },
    }
}

pub fn build(w: crate::Workload, seed: u64) -> Inputs {
    let p = plan(w);
    let fleet = fleet(seed, p.schemas, p.queries_per_schema);
    let mut keys = keys(&fleet, p.es, p.exclusions);
    Rng::fork(seed, 4).shuffle(&mut keys);
    let probe_json = ipe_schema::fixtures::university().to_json();
    let probe_schema = Schema::from_json(&probe_json).expect("fixture round-trips");
    Inputs {
        fleet,
        keys,
        churn: churn(seed),
        probe_json,
        probe_schema,
        data: p.objects_per_class.map(|n| ipe_gen::DataGenConfig {
            objects_per_class: Some(n),
            links_per_rel: p.links_per_rel,
            seed: Some(Rng::fork(seed, 5).next_u64() % 1_000_000),
        }),
    }
}
