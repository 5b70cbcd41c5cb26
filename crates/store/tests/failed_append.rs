//! An append that fails part-way leaves no torn frame behind: a later
//! acknowledged append survives a reopen.
//!
//! The write is made to fail for real, by lowering this process's
//! file-size limit (`RLIMIT_FSIZE`) below the end of the next frame. The
//! limit is process-wide, so this file holds this one test and restores the
//! limit before it asserts anything; `SIGXFSZ` is ignored so that the write
//! returns `EFBIG` instead of killing the process. The system calls are
//! declared against the C library std already links, as the service's
//! `epoll` module does.

use ipe_store::{FsyncPolicy, Store, StoreConfig, StoreError, DEFAULT_TENANT, WAL_FILE};
use std::path::PathBuf;

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

const RLIMIT_FSIZE: i32 = 1;
const SIGXFSZ: i32 = 25;
const SIG_IGN: usize = 1;
const EFBIG: i32 = 27;

fn file_size_limit() -> Rlimit {
    let mut limit = Rlimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a valid, writable `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_FSIZE, &mut limit) }, 0);
    limit
}

fn set_file_size_limit(limit: &Rlimit) {
    // SAFETY: `limit` is a valid `struct rlimit`.
    assert_eq!(unsafe { setrlimit(RLIMIT_FSIZE, limit) }, 0);
}

#[test]
fn acked_append_after_a_failed_one_survives_reopen() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ipe-failed-append-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = StoreConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Always,
        snapshot_every: 0,
    };
    let wal = dir.join(WAL_FILE);
    let (mut store, _) = Store::open(&cfg).unwrap();
    store
        .append_put(DEFAULT_TENANT, "a", 1, 1, "{\"a\":1}")
        .unwrap();
    let good_len = std::fs::metadata(&wal).unwrap().len();

    // SAFETY: ignoring a signal installs no handler code.
    unsafe { signal(SIGXFSZ, SIG_IGN) };
    let saved = file_size_limit();
    set_file_size_limit(&Rlimit {
        cur: good_len + 16,
        max: saved.max,
    });
    let failed = store.append_put(DEFAULT_TENANT, "b", 2, 1, "{\"b\":1}");
    let len_after_failure = std::fs::metadata(&wal).unwrap().len();
    set_file_size_limit(&saved);

    match failed {
        Err(StoreError::Io(e)) => assert_eq!(e.raw_os_error(), Some(EFBIG), "{e}"),
        other => panic!("the append past the limit must fail with EFBIG: {other:?}"),
    }
    assert_eq!(
        len_after_failure, good_len,
        "the torn frame is cut back off"
    );
    let acked = store
        .append_put(DEFAULT_TENANT, "c", 3, 1, "{\"c\":1}")
        .unwrap();
    assert_eq!(acked.seq, 2);
    drop(store);

    let (_store, recovery) = Store::open(&cfg).unwrap();
    let names: Vec<&str> = recovery.schemas.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["a", "c"]);
    assert_eq!(recovery.last_seq, 2);
    assert!(!recovery.truncated_tail);
    std::fs::remove_dir_all(&dir).ok();
}
