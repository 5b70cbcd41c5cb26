//! The schema and data resources: `/v1/schemas[/:name]` and
//! `/v1/data/:schema`, each under the request's tenant.

use super::dispatch::{body_text, decode, Handled, Reply, ReqObs};
use super::ServiceState;
use crate::api::{
    DataDeleteResponse, DataPutRequest, DataPutResponse, SchemaDeleteResponse, SchemaPutResponse,
};
use crate::http::Request;
use crate::registry::SchemaInfo;
use crate::route::Verb;
use crate::sync::lock_recover;
use ipe_schema::Schema;
use ipe_store::{WalOp, WalRecord};
use ipe_tenant::{scoped_name, split_scoped, Tenant};
use std::sync::Arc;

/// Cap on a `PUT /v1/data/:schema` load: explicit spec entries, or
/// projected objects of a `gen` request. Beyond it the load is a `413`.
/// A tenant's own `max_data_entries` can only tighten it.
const MAX_DATA_ENTRIES: usize = 500_000;

/// `GET /v1/schemas`: only this tenant's namespace, with the scope
/// prefix stripped back off — names on the wire are tenant-local.
pub(super) fn handle_list_schemas(state: &ServiceState, tenant: &Tenant) -> Handled {
    #[derive(serde::Serialize)]
    struct Listing {
        schemas: Vec<SchemaInfo>,
    }
    let schemas = state
        .registry
        .list()
        .into_iter()
        .filter(|info| split_scoped(&info.name).0 == tenant.name())
        .map(|mut info| {
            info.name = split_scoped(&info.name).1.to_owned();
            info
        })
        .collect();
    Ok(Reply::serialize(200, &Listing { schemas }))
}

/// `GET`/`PUT`/`DELETE /v1/schemas/:name`.
pub(super) fn handle_schema(
    state: &Arc<ServiceState>,
    req: &Request,
    tenant: &Tenant,
    verb: Verb,
    name: &str,
) -> Handled {
    let key_name = scoped_name(tenant.name(), name);
    let missing = || Reply::error(404, &format!("no schema named `{name}`"));
    match verb {
        Verb::Get => {
            let entry = state.registry.get(&key_name).ok_or_else(missing)?;
            let info = SchemaInfo {
                name: name.to_owned(),
                ..entry.info()
            };
            Ok(Reply::serialize(200, &info))
        }
        Verb::Put => put_schema(state, req, tenant, name),
        Verb::Delete => {
            let store_guard = state.store.as_ref().map(lock_recover);
            // Purged before acknowledging, so a deleted schema's cached
            // results are unreachable the moment the 200 lands.
            let (entry, purged, purged_data) = state.drop_schema(&key_name).ok_or_else(missing)?;
            if let Some(mut store) = store_guard {
                match store.append_delete(tenant.name(), name) {
                    Ok(appended) => {
                        // Published under the store mutex, as in
                        // `register_schema_for`.
                        if let Some(hub) = &state.repl_hub {
                            hub.publish(&WalRecord {
                                seq: appended.seq,
                                op: WalOp::Delete {
                                    tenant: tenant.name().to_owned(),
                                    name: name.to_owned(),
                                },
                            });
                        }
                    }
                    Err(e) => {
                        ipe_obs::counter!("store.wal.append_failed", 1);
                        return Err(Reply::error(
                            500,
                            &format!("schema removed but delete not persisted: {e}"),
                        ));
                    }
                }
            }
            Ok(Reply::serialize(
                200,
                &SchemaDeleteResponse {
                    name: name.to_owned(),
                    id: entry.id,
                    generation: entry.generation,
                    purged_cache_entries: purged,
                    purged_data,
                },
            ))
        }
    }
}

fn put_schema(state: &Arc<ServiceState>, req: &Request, tenant: &Tenant, name: &str) -> Handled {
    let body = body_text(req)?;
    let schema =
        Schema::from_json(body).map_err(|e| Reply::error(400, &format!("invalid schema: {e}")))?;
    let entry = state
        .register_schema_for(tenant.name(), name, schema, body)
        .map_err(|e| Reply::error(500, &format!("schema registered but not persisted: {e}")))?;
    // Generation keying already shields correctness; purging just frees
    // the dead generations' memory eagerly.
    let purged = if entry.generation > 1 {
        state.caches.purge_schema(tenant.name(), entry.id)
    } else {
        0
    };
    Ok(Reply::serialize(
        200,
        &SchemaPutResponse {
            name: name.to_owned(),
            id: entry.id,
            generation: entry.generation,
            purged_cache_entries: purged,
        },
    ))
}

/// `GET`/`PUT`/`DELETE /v1/data/:schema`.
pub(super) fn handle_data(
    state: &ServiceState,
    req: &Request,
    tenant: &Tenant,
    verb: Verb,
    name: &str,
    obs: &mut ReqObs,
) -> Handled {
    let key_name = scoped_name(tenant.name(), name);
    let missing = || Reply::error(404, &format!("no data loaded for `{name}`"));
    match verb {
        Verb::Get => {
            let entry = state.data.get(&key_name).ok_or_else(missing)?;
            Ok(Reply::serialize(200, &data_view(&entry)))
        }
        Verb::Put => put_data(state, req, tenant, name, obs),
        Verb::Delete => {
            let entry = state.data.remove(&key_name).ok_or_else(missing)?;
            Ok(Reply::serialize(
                200,
                &DataDeleteResponse {
                    schema: name.to_owned(),
                    data_generation: entry.data_generation,
                },
            ))
        }
    }
}

/// `PUT /v1/data/:schema`: loads a database instance for a registered
/// schema, either from an explicit bulk spec or a synthetic `gen`
/// request. The load is generation-stamped against the schema's current
/// registry generation; oversized loads are a `413`.
fn put_data(
    state: &ServiceState,
    req: &Request,
    tenant: &Tenant,
    name: &str,
    obs: &mut ReqObs,
) -> Handled {
    let key_name = scoped_name(tenant.name(), name);
    let parsed: DataPutRequest = decode(req)?;
    let entry = (state.registry.get(&key_name))
        .ok_or_else(|| Reply::error(404, &format!("no schema named `{name}`")))?;
    // The tenant's quota, when set, tightens (never loosens) the
    // service-wide load cap.
    let cap = match tenant.config().max_data_entries {
        Some(limit) => (limit as usize).min(MAX_DATA_ENTRIES),
        None => MAX_DATA_ENTRIES,
    };
    let explicit = parsed.objects.len() + parsed.links.len() + parsed.attrs.len();
    let (db, source) = if let Some(gen) = &parsed.gen {
        if explicit > 0 {
            return Err(Reply::error(
                400,
                "`gen` and explicit objects/links/attrs are mutually exclusive",
            ));
        }
        let projected = gen.projected_objects(&entry.schema);
        if projected > cap as u64 {
            return Err(Reply::error(
                413,
                &format!("generation would create ~{projected} objects, over the {cap} cap"),
            ));
        }
        let mut gen_span = obs.span.child("data.generate");
        gen_span.attr("projected_objects", projected);
        let db = ipe_gen::generate_database(&entry.schema, gen);
        gen_span.finish();
        (db, "gen")
    } else {
        if explicit > cap {
            return Err(Reply::error(
                413,
                &format!("spec has {explicit} entries, over the {cap} cap"),
            ));
        }
        let mut load_span = obs.span.child("data.load");
        load_span.attr("entries", explicit as u64);
        let db = ipe_query::load(&entry.schema, &parsed.spec())
            .map_err(|e| Reply::error(422, &e.to_string()))?;
        load_span.finish();
        (db, "spec")
    };
    let loaded = state
        .data
        .insert(&key_name, entry.id, entry.generation, source, db);
    ipe_obs::counter!("service.data.put", 1);
    Ok(Reply::serialize(200, &data_view(&loaded)))
}

/// Renders a data entry's summary (PUT and GET share the shape).
fn data_view(entry: &crate::DataEntry) -> DataPutResponse {
    DataPutResponse {
        schema: split_scoped(&entry.schema_name).1.to_owned(),
        schema_generation: entry.schema_generation,
        data_generation: entry.data_generation,
        source: entry.source.to_owned(),
        objects: entry.db.object_count() as u64,
        links: entry.db.link_count() as u64,
        attrs: entry.db.attr_count() as u64,
    }
}
