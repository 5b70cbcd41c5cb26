//! Typed routing: a request's method and path are parsed once into a
//! [`Route`], and every per-route policy — label, timer, rate quota,
//! search permit, follower redirect — is a method of its [`Kind`].
//!
//! Only the data plane is tenant-scoped (DESIGN.md §17): under
//! `/v1/t/:tenant/` exactly `complete`, `complete/batch`, `query`,
//! `schemas[/:name]` and `data/:name` exist. The control plane (tenants,
//! replication, debug, shutdown) and the probes live only at their
//! legacy paths, owned by the built-in `default` tenant.

use crate::server::Reply;
use ipe_obs::Timer;
use ipe_tenant::{validate_tenant_name, DEFAULT_TENANT};

/// The verb of a request on a named resource (`/v1/schemas/:name`, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verb {
    Get,
    Put,
    Delete,
}

/// What a request asks for. Path names are already validated as one
/// non-empty segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind<'a> {
    Complete,
    Batch,
    Query,
    ListSchemas,
    Schema(Verb, &'a str),
    Data(Verb, &'a str),
    Tenants,
    Tenant(Verb, &'a str),
    Healthz,
    Readyz,
    ReplStream,
    ReplStatus,
    Metrics,
    DebugRequests,
    DebugRequest(&'a str),
    DebugPanic,
    Shutdown,
    /// No such endpoint (`404`), including a wrong method on a known path.
    Other,
}

/// One parsed request target: the tenant it runs under and its kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Route<'a> {
    pub(crate) tenant: &'a str,
    pub(crate) kind: Kind<'a>,
}

/// Route families: the label of the access log and flight recorder, and
/// the per-route timer the Prometheus exposition derives quantiles from.
static FAMILIES: [(&str, Timer); 13] = [
    ("complete", Timer::new("service.route.complete")),
    ("batch", Timer::new("service.route.batch")),
    ("query", Timer::new("service.route.query")),
    ("schemas", Timer::new("service.route.schemas")),
    ("data", Timer::new("service.route.data")),
    ("tenants", Timer::new("service.route.tenants")),
    ("healthz", Timer::new("service.route.healthz")),
    ("readyz", Timer::new("service.route.readyz")),
    ("repl", Timer::new("service.route.repl")),
    ("metrics", Timer::new("service.route.metrics")),
    ("debug", Timer::new("service.route.debug")),
    ("shutdown", Timer::new("service.route.shutdown")),
    ("other", Timer::new("service.route.other")),
];

impl<'a> Route<'a> {
    /// Parses `method` and `path`. Errors are the reply to send: `400`
    /// for a bad tenant name or a `:name` that is not one non-empty
    /// segment, `404` for a tenant prefix with no route after it.
    pub(crate) fn parse(method: &str, path: &'a str) -> Result<Route<'a>, Reply> {
        let scoped = path.strip_prefix("/v1/t/");
        let (tenant, tail) = if let Some(rest) = scoped {
            let (tenant, tail) = rest.split_once('/').ok_or_else(|| {
                Reply::error(404, "tenant-scoped paths look like /v1/t/:tenant/<route>")
            })?;
            validate_tenant_name(tenant).map_err(|e| Reply::error(400, &e.to_string()))?;
            (tenant, tail)
        } else if let Some(tail) = path.strip_prefix("/v1/") {
            (DEFAULT_TENANT, tail)
        } else {
            let kind = match (method, path) {
                ("GET", "/healthz") => Kind::Healthz,
                ("GET", "/readyz") => Kind::Readyz,
                ("GET", "/metrics") => Kind::Metrics,
                _ => Kind::Other,
            };
            return Ok(Route {
                tenant: DEFAULT_TENANT,
                kind,
            });
        };
        let mut kind = match (method, tail) {
            ("POST", "complete") => Kind::Complete,
            ("POST", "complete/batch") => Kind::Batch,
            ("POST", "query") => Kind::Query,
            ("GET", "schemas") => Kind::ListSchemas,
            ("GET", "tenants") => Kind::Tenants,
            ("GET", "repl/stream") => Kind::ReplStream,
            ("GET", "repl/status") => Kind::ReplStatus,
            ("GET", "debug/requests") => Kind::DebugRequests,
            ("POST", "debug/panic") => Kind::DebugPanic,
            ("POST", "shutdown") => Kind::Shutdown,
            _ => {
                if let Some(name) = tail.strip_prefix("schemas/") {
                    named(method, name, "schema name", Kind::Schema)?
                } else if let Some(name) = tail.strip_prefix("data/") {
                    named(method, name, "schema name", Kind::Data)?
                } else if let Some(name) = tail.strip_prefix("tenants/") {
                    named(method, name, "tenant name", Kind::Tenant)?
                } else if let (Some(id), "GET") = (tail.strip_prefix("debug/requests/"), method) {
                    Kind::DebugRequest(segment(id, "trace id")?)
                } else {
                    Kind::Other
                }
            }
        };
        // Only the data plane has a tenant-scoped form.
        if scoped.is_some() && !kind.data_plane() {
            kind = Kind::Other;
        }
        Ok(Route { tenant, kind })
    }
}

/// A `GET`/`PUT`/`DELETE` on `/…/:name`; any other method is `Other`.
fn named<'a>(
    method: &str,
    name: &'a str,
    what: &str,
    kind: fn(Verb, &'a str) -> Kind<'a>,
) -> Result<Kind<'a>, Reply> {
    let verb = match method {
        "GET" => Verb::Get,
        "PUT" => Verb::Put,
        "DELETE" => Verb::Delete,
        _ => return Ok(Kind::Other),
    };
    Ok(kind(verb, segment(name, what)?))
}

/// `name` as one non-empty path segment, else a `400`.
fn segment<'a>(name: &'a str, what: &str) -> Result<&'a str, Reply> {
    if name.is_empty() || name.contains('/') {
        return Err(Reply::error(
            400,
            &format!("{what} must be a single path segment"),
        ));
    }
    Ok(name)
}

impl Kind<'_> {
    fn family(&self) -> usize {
        match self {
            Kind::Complete => 0,
            Kind::Batch => 1,
            Kind::Query => 2,
            Kind::ListSchemas | Kind::Schema(..) => 3,
            Kind::Data(..) => 4,
            Kind::Tenants | Kind::Tenant(..) => 5,
            Kind::Healthz => 6,
            Kind::Readyz => 7,
            Kind::ReplStream | Kind::ReplStatus => 8,
            Kind::Metrics => 9,
            Kind::DebugRequests | Kind::DebugRequest(_) | Kind::DebugPanic => 10,
            Kind::Shutdown => 11,
            Kind::Other => 12,
        }
    }

    /// Coarse label for the access log and the flight recorder.
    pub(crate) fn label(&self) -> &'static str {
        FAMILIES[self.family()].0
    }

    /// This route's wall-time timer (`service.route.<label>`).
    pub(crate) fn timer(&self) -> &'static Timer {
        &FAMILIES[self.family()].1
    }

    /// Whether the route is in the data plane: the routes with a
    /// tenant-scoped form, and the ones the tenant's token-bucket request
    /// quota applies to. Health, metrics, replication, debug, and the
    /// tenant control plane are exempt from the quota: throttling a health
    /// check or a scrape would blind the operator to the throttling
    /// itself, and an operator must always be able to raise a quota.
    pub(crate) fn data_plane(&self) -> bool {
        matches!(
            self,
            Kind::Complete
                | Kind::Batch
                | Kind::Query
                | Kind::ListSchemas
                | Kind::Schema(..)
                | Kind::Data(..)
        )
    }

    /// Whether the route runs engine searches, and so must hold one of
    /// the tenant's concurrent-search permits.
    pub(crate) fn searches(&self) -> bool {
        matches!(self, Kind::Complete | Kind::Batch | Kind::Query)
    }

    /// Whether a follower refuses the route with `421` and the leader's
    /// address: it writes the schema log, which only the leader owns.
    /// Data loads stay node-local, so they are served.
    pub(crate) fn leader_only(&self) -> bool {
        matches!(self, Kind::Schema(Verb::Put | Verb::Delete, _))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse<'a>(method: &str, path: &'a str) -> Result<(&'a str, Kind<'a>), u16> {
        Route::parse(method, path)
            .map(|r| (r.tenant, r.kind))
            .map_err(|reply| reply.status)
    }

    /// Every method × path of the legacy and tenant-scoped forms, with
    /// its label.
    #[test]
    fn parses_every_route() {
        use Kind::*;
        use Verb::*;
        let data_plane = [
            ("POST", "complete", Complete, "complete"),
            ("POST", "complete/batch", Batch, "batch"),
            ("POST", "query", Query, "query"),
            ("GET", "schemas", ListSchemas, "schemas"),
            ("GET", "schemas/s", Schema(Get, "s"), "schemas"),
            ("PUT", "schemas/s", Schema(Put, "s"), "schemas"),
            ("DELETE", "schemas/s", Schema(Delete, "s"), "schemas"),
            ("GET", "data/s", Data(Get, "s"), "data"),
            ("PUT", "data/s", Data(Put, "s"), "data"),
            ("DELETE", "data/s", Data(Delete, "s"), "data"),
        ];
        for (method, tail, kind, label) in data_plane {
            let (legacy, scoped) = (format!("/v1/{tail}"), format!("/v1/t/acme/{tail}"));
            assert_eq!(
                parse(method, &legacy),
                Ok((DEFAULT_TENANT, kind)),
                "{legacy}"
            );
            assert_eq!(parse(method, &scoped), Ok(("acme", kind)), "{scoped}");
            assert_eq!(kind.label(), label);
            assert!(kind.data_plane(), "{kind:?}");
        }
        let control_plane = [
            ("GET", "/v1/tenants", Tenants, "tenants"),
            ("GET", "/v1/tenants/t", Tenant(Get, "t"), "tenants"),
            ("PUT", "/v1/tenants/t", Tenant(Put, "t"), "tenants"),
            ("DELETE", "/v1/tenants/t", Tenant(Delete, "t"), "tenants"),
            ("GET", "/healthz", Healthz, "healthz"),
            ("GET", "/readyz", Readyz, "readyz"),
            ("GET", "/v1/repl/stream", ReplStream, "repl"),
            ("GET", "/v1/repl/status", ReplStatus, "repl"),
            ("GET", "/metrics", Metrics, "metrics"),
            ("GET", "/v1/debug/requests", DebugRequests, "debug"),
            ("GET", "/v1/debug/requests/id", DebugRequest("id"), "debug"),
            ("POST", "/v1/debug/panic", DebugPanic, "debug"),
            ("POST", "/v1/shutdown", Shutdown, "shutdown"),
        ];
        for (method, path, kind, label) in control_plane {
            assert_eq!(parse(method, path), Ok((DEFAULT_TENANT, kind)), "{path}");
            assert_eq!(kind.label(), label);
            assert!(!kind.data_plane(), "{kind:?}");
            // The control plane has no tenant-scoped alias.
            let scoped = format!("/v1/t/default{}", path.trim_start_matches("/v1"));
            assert_eq!(
                parse(method, &scoped),
                Ok((DEFAULT_TENANT, Other)),
                "{scoped}"
            );
        }
    }

    #[test]
    fn rejects_malformed_targets() {
        // Bad tenant name.
        assert_eq!(parse("POST", "/v1/t/Bad!/complete"), Err(400));
        assert_eq!(parse("POST", "/v1/t//complete"), Err(400));
        // Tenant prefix with no route after it.
        assert_eq!(parse("POST", "/v1/t/acme"), Err(404));
        // Empty or multi-segment `:name`.
        for path in [
            "/v1/schemas/",
            "/v1/schemas/a/b",
            "/v1/data/",
            "/v1/t/acme/data/a/b",
            "/v1/tenants/",
            "/v1/tenants/a/b",
            "/v1/debug/requests/",
            "/v1/debug/requests/a/b",
        ] {
            assert_eq!(parse("GET", path), Err(400), "{path}");
        }
        // A wrong method on a known path, and unknown paths, are `Other`.
        for (method, path) in [
            ("GET", "/v1/complete"),
            ("POST", "/v1/schemas"),
            ("POST", "/v1/schemas/s"),
            ("POST", "/v1/t/acme/data/s"),
            ("POST", "/healthz"),
            ("DELETE", "/metrics"),
            ("GET", "/v1/shutdown"),
            ("GET", "/nope"),
            ("GET", "/v1/schemasx"),
            ("GET", "/v1/t/acme/"),
        ] {
            assert_eq!(parse(method, path).map(|r| r.1), Ok(Kind::Other), "{path}");
        }
        assert_eq!(Kind::Other.label(), "other");
    }

    #[test]
    fn search_and_leader_only_policies() {
        use Kind::*;
        use Verb::*;
        for kind in [Complete, Batch, Query] {
            assert!(kind.searches(), "{kind:?}");
        }
        for kind in [ListSchemas, Schema(Get, "s"), Data(Put, "s"), Tenants] {
            assert!(!kind.searches(), "{kind:?}");
        }
        assert!(Schema(Put, "s").leader_only() && Schema(Delete, "s").leader_only());
        assert!(!Schema(Get, "s").leader_only() && !Data(Put, "s").leader_only());
    }
}
