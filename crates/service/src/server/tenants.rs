//! The tenant control plane: `GET /v1/tenants` and
//! `GET`/`PUT`/`DELETE /v1/tenants/:tenant`. Never tenant-scoped, never
//! admitted against a quota — an operator must always be able to raise
//! one.

use super::dispatch::{body_text, Handled, Reply};
use super::ServiceState;
use crate::http::Request;
use crate::route::Verb;
use crate::sync::lock_recover;
use ipe_store::{WalOp, WalRecord};
use ipe_tenant::{split_scoped, Tenant, TenantConfig, TenantError};

/// One tenant on the wire (`GET /v1/tenants`, `PUT /v1/tenants/:tenant`).
#[derive(serde::Serialize)]
struct TenantView {
    tenant: String,
    created: bool,
    config: TenantConfig,
    in_flight: u64,
    admitted: u64,
    throttled: u64,
    busy: u64,
    searches: u64,
}

fn tenant_view(tenant: &Tenant, created: bool) -> TenantView {
    let counters = tenant.counters();
    TenantView {
        tenant: tenant.name().to_owned(),
        created,
        config: tenant.config(),
        in_flight: u64::from(tenant.in_flight()),
        admitted: counters.admitted,
        throttled: counters.throttled,
        busy: counters.busy,
        searches: counters.searches,
    }
}

/// Maps a tenant-registry error onto its status.
fn tenant_error_reply(e: TenantError) -> Reply {
    let status = match e {
        TenantError::BadName(_) => 400,
        TenantError::Unknown => 404,
        TenantError::Immortal => 409,
    };
    Reply::error(status, &e.to_string())
}

/// `GET /v1/tenants`: every tenant, `default` included.
pub(super) fn handle_list_tenants(state: &ServiceState) -> Handled {
    #[derive(serde::Serialize)]
    struct Listing {
        tenants: Vec<TenantView>,
    }
    let tenants = state
        .tenants
        .list()
        .iter()
        .map(|t| tenant_view(t, false))
        .collect();
    Ok(Reply::serialize(200, &Listing { tenants }))
}

/// `GET`/`PUT`/`DELETE /v1/tenants/:tenant`.
pub(super) fn handle_tenant(
    state: &ServiceState,
    req: &Request,
    verb: Verb,
    name: &str,
) -> Handled {
    match verb {
        Verb::Get => {
            let tenant = state
                .tenants
                .get(name)
                .ok_or_else(|| Reply::error(404, &format!("no tenant named `{name}`")))?;
            Ok(Reply::serialize(200, &tenant_view(&tenant, false)))
        }
        Verb::Put => put_tenant(state, req, name),
        Verb::Delete => delete_tenant(state, name),
    }
}

/// `PUT /v1/tenants/:tenant`: creates a tenant namespace, or reconfigures
/// an existing one in place (quota state and counters survive a
/// reconfigure). The body is a [`TenantConfig`]; an empty body means
/// default (unlimited) quotas. Reconfiguring `default` is allowed — that
/// is how legacy un-prefixed traffic gets quotas.
fn put_tenant(state: &ServiceState, req: &Request, name: &str) -> Handled {
    let body = body_text(req)?;
    let config: TenantConfig = if body.trim().is_empty() {
        TenantConfig::default()
    } else {
        serde_json::from_str(body)
            .map_err(|e| Reply::error(400, &format!("bad tenant config: {e}")))?
    };
    let cache_bytes = config.cache_bytes;
    let (tenant, created) = state
        .tenants
        .put(name, config)
        .map_err(tenant_error_reply)?;
    // The cache partition's byte budget follows the config — a shrink
    // evicts down to the new budget at once.
    state.caches.ensure(name, cache_bytes);
    state.persist_tenants();
    let status = if created { 201 } else { 200 };
    Ok(Reply::serialize(status, &tenant_view(&tenant, created)))
}

/// Counts reported by a tenant purge (`DELETE /v1/tenants/:tenant`).
#[derive(serde::Serialize)]
struct TenantDeleteResponse {
    tenant: String,
    purged_schemas: u64,
    purged_data: u64,
    purged_cache_entries: u64,
    purged_cache_bytes: u64,
    /// Always 0: indexes are not persisted. Kept for wire compatibility.
    purged_sidecars: u64,
}

/// `DELETE /v1/tenants/:tenant`: removes the namespace and purges
/// everything it owned — registry entries (each with a WAL delete, so
/// followers converge), loaded data instances, and the whole cache
/// partition. The store lock is held across the sweep so a racing PUT
/// serializes against the purge instead of interleaving with it.
/// `default` is immortal (`409`).
fn delete_tenant(state: &ServiceState, name: &str) -> Handled {
    // Remove the tenant first: new requests 404 while the purge runs
    // (in-flight ones hold their own Arc and drain naturally).
    state.tenants.remove(name).map_err(tenant_error_reply)?;
    let owned: Vec<String> = state
        .registry
        .list()
        .into_iter()
        .filter(|info| split_scoped(&info.name).0 == name)
        .map(|info| info.name)
        .collect();
    let mut purged_schemas = 0u64;
    let mut purged_data = 0u64;
    let mut append_err: Option<String> = None;
    {
        let mut store_guard = state.store.as_ref().map(lock_recover);
        for key in &owned {
            if state.registry.remove(key).is_none() {
                continue;
            }
            purged_schemas += 1;
            if state.data.remove(key).is_some() {
                purged_data += 1;
            }
            if let Some(store) = store_guard.as_mut() {
                let bare = split_scoped(key).1;
                match store.append_delete(name, bare) {
                    Ok(appended) => {
                        if let Some(hub) = &state.repl_hub {
                            hub.publish(&WalRecord {
                                seq: appended.seq,
                                op: WalOp::Delete {
                                    tenant: name.to_owned(),
                                    name: bare.to_owned(),
                                },
                            });
                        }
                    }
                    Err(e) => {
                        ipe_obs::counter!("store.wal.append_failed", 1);
                        append_err.get_or_insert_with(|| e.to_string());
                    }
                }
            }
        }
    }
    let (purged_cache_entries, purged_cache_bytes) = state.caches.drop_partition(name);
    state.persist_tenants();
    ipe_obs::counter!("service.tenant.deleted", 1);
    if let Some(e) = append_err {
        return Err(Reply::error(
            500,
            &format!("tenant purged but deletes not persisted: {e}"),
        ));
    }
    Ok(Reply::serialize(
        200,
        &TenantDeleteResponse {
            tenant: name.to_owned(),
            purged_schemas,
            purged_data,
            purged_cache_entries,
            purged_cache_bytes,
            purged_sidecars: 0,
        },
    ))
}
