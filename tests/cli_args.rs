//! CLI argument-plumbing regression tests: global flags (`--trace`,
//! `--report`) must compose with explicit subcommands — in particular the
//! `serve` subcommand — instead of forcing an implicit `complete`.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn ipe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ipe"))
}

/// `ipe --trace serve --addr <invalid>` must dispatch to `serve` (and so
/// fail on the bind), not treat "serve" as a path expression.
#[test]
fn global_flags_before_serve_dispatch_to_serve() {
    let out = ipe()
        .args(["--trace", "serve", "--addr", "999.999.999.999:1"])
        .output()
        .expect("run ipe");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot start on"),
        "expected the serve bind error, got: {stderr}"
    );
}

/// The implicit-complete shorthand keeps working with leading flags.
#[test]
fn implicit_complete_with_leading_flags_still_works() {
    let out = ipe()
        .args(["--e", "1", "ta~name"])
        .output()
        .expect("run ipe");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ta@>grad@>student@>person.name"),
        "{stdout}"
    );
}

/// An explicit subcommand placed *after* global flags is still found.
#[test]
fn flags_before_explicit_complete() {
    let out = ipe()
        .args(["--e", "2", "complete", "ta~name"])
        .output()
        .expect("run ipe");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A bare unknown word is still an unknown-command error, not a search.
#[test]
fn unknown_command_is_rejected() {
    let out = ipe().arg("frobnicate").output().expect("run ipe");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

/// Full compose check: `ipe --report FILE serve` starts the server, the
/// printed ephemeral address is reachable, `ta~name` returns the Figure-2
/// answers over HTTP, and a clean shutdown writes the metrics report.
#[test]
fn report_flag_composes_with_serve() {
    let dir = std::env::temp_dir().join(format!("ipe-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("service_report.json");
    let mut child = ipe()
        .args([
            "--report",
            report.to_str().unwrap(),
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ipe serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("server prints its address")
        .expect("readable stdout");
    let addr = first
        .rsplit("http://")
        .next()
        .expect("address after http://")
        .trim()
        .to_owned();
    assert!(addr.contains(':'), "unexpected announce line: {first}");

    let mut client = ipe::service::Client::new(addr);
    let (status, body) = client
        .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
        .expect("server reachable");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("ta@>grad@>student@>person.name"), "{body}");
    let (status, _) = client.request("POST", "/v1/shutdown", "").unwrap();
    assert_eq!(status, 200);

    let status = child.wait().expect("server exits after shutdown");
    assert!(status.success());
    let report_text = std::fs::read_to_string(&report).expect("report written on shutdown");
    assert!(report_text.contains("\"service\""), "{report_text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The cache has one bound: the retired `--cache-capacity` and
/// `--cache-shards` fail naming `--cache-bytes`, and a zero budget is
/// refused. The address cannot bind, so a flag that parsed by mistake
/// fails on the bind instead of leaving a server running.
#[test]
fn serve_has_one_cache_bound() {
    for (flag, value) in [
        ("--cache-capacity", "4096"),
        ("--cache-shards", "16"),
        ("--cache-bytes", "0"),
    ] {
        let out = ipe()
            .args(["serve", "--addr", "999.999.999.999:1", flag, value])
            .output()
            .expect("run ipe");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("--cache-bytes"),
            "{flag} {value}: {stderr}"
        );
        assert!(!stderr.contains("cannot start on"), "{flag}: {stderr}");
    }
}
