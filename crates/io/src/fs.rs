//! Canonical durable-write helpers: the one implementation of the
//! stage → fsync → rename → dir-fsync protocol.
//!
//! Every durable artifact in the workspace — shard snapshot segments, the
//! store meta file, the cluster manifest, shipped replica images and
//! batch-join input segments — is published through [`publish_durable`], so
//! the protocol lives in one audited place and every step reports to the
//! [`crate::fswitness`] runtime witness, so debug suites assert the
//! ordering actually executed. `clippy.toml`'s `disallowed-methods` keeps
//! it the one place: `File::create`, `fs::write`, `fs::rename` and the
//! fsyncs are lint errors elsewhere, and each call here carries an
//! `#[expect]` that fails the build if the call is deleted.
//! [`atomic_write_durable`] is the in-memory form: write these bytes
//! through [`publish_durable`].
//!
//! The protocol, and why each step exists:
//!
//! 1. stream the bytes to a `<name>.tmp` sibling — a crash mid-write
//!    tears the staging file, never the published name;
//! 2. `sync_all` the staged file — the bytes are durable *before* any
//!    name points at them;
//! 3. `rename` over the final name — atomic on POSIX, so readers see
//!    either the old file or the complete new one;
//! 4. `sync_all` the parent directory — the rename itself is an entry
//!    table update, durable only once the directory is synced.
//!
//! A crash between 1–3 leaves `*.tmp` litter that recovery removes with
//! [`sweep_tmp_files`]; a crash after 3 but before 4 may lose the rename
//! but never corrupts either version.

use crate::fswitness;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// The directory whose entry table publishes `path`'s name (`.` when the
/// path is a bare file name) — the directory step 4 must fsync.
pub fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// The staging sibling of `path`: its file name with `.tmp` appended.
fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Publishes `path` durably: `stream` writes the contents (buffered) into
/// the staging sibling, then the staged bytes are fsynced, renamed over
/// the final name and the parent directory fsynced. On return the new
/// contents are durable under the final name — the caller owes nothing.
/// If `stream` fails, nothing is published and the stage is left as
/// `*.tmp` litter for [`sweep_tmp_files`].
pub fn publish_durable<T>(
    path: &Path,
    stream: impl FnOnce(&mut BufWriter<File>) -> io::Result<T>,
) -> io::Result<T> {
    let tmp = staging_path(path);
    fswitness::note_create(&tmp);
    #[expect(clippy::disallowed_methods, reason = "step 1: the publisher's stage")]
    let mut out = BufWriter::new(File::create(&tmp)?);
    let value = stream(&mut out)?;
    let file = out.into_inner().map_err(|e| e.into_error())?;
    fswitness::note_write(&tmp);
    sync_file(file, &tmp)?;
    #[expect(clippy::disallowed_methods, reason = "step 3: the one rename site")]
    fs::rename(&tmp, path)?;
    fswitness::note_rename(&tmp, path);
    sync_dir(&parent_dir(path))?;
    Ok(value)
}

/// Fsyncs and closes a staged file, and notes the fsync to the witness in
/// the same step (step 2 of the protocol).
fn sync_file(file: File, path: &Path) -> io::Result<()> {
    #[expect(clippy::disallowed_methods, reason = "step 2: the file fsync")]
    file.sync_all()?;
    fswitness::note_sync_file(path);
    Ok(())
}

/// Atomically and durably replaces `path` with `bytes`: writes them
/// through [`publish_durable`].
pub fn atomic_write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    publish_durable(path, |out| out.write_all(bytes))
}

/// Fsyncs a directory, making previously renamed or resized entries
/// durable (step 4 of the protocol; store recovery also calls it after
/// trimming the WAL).
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    #[expect(clippy::disallowed_methods, reason = "step 4: the directory fsync")]
    File::open(dir)?.sync_all()?;
    fswitness::note_sync_dir(dir);
    Ok(())
}

/// Removes stale `*.tmp` staging litter from `dir` — the recovery sweep
/// matching step 1's crash window. Removal is best-effort per entry (a
/// concurrently vanishing file is not an error); a missing directory
/// sweeps zero files. Returns how many entries were removed.
pub fn sweep_tmp_files(dir: &Path) -> io::Result<usize> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut removed = 0;
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("tmp")
            && fs::remove_file(&path).is_ok()
        {
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests plant raw files")]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssj-io-fs-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_litter() {
        let dir = scratch("replace");
        let path = dir.join("state.meta");
        atomic_write_durable(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        atomic_write_durable(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!staging_path(&path).exists());
        // The witness saw the full protocol: no dirsync debt remains.
        fswitness::assert_dir_settled(&dir);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_tmp_litter() {
        let dir = scratch("sweep");
        fs::write(dir.join("keep.snap"), b"k").unwrap();
        fs::write(dir.join("stale.tmp"), b"s").unwrap();
        fs::write(dir.join("other.tmp"), b"s").unwrap();
        assert_eq!(sweep_tmp_files(&dir).unwrap(), 2);
        assert!(dir.join("keep.snap").exists());
        assert!(!dir.join("stale.tmp").exists());
        assert_eq!(sweep_tmp_files(&dir).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_of_missing_dir_is_empty() {
        let dir = std::env::temp_dir().join(format!("ssj-io-fs-missing-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(sweep_tmp_files(&dir).unwrap(), 0);
    }

    #[test]
    fn streamed_publish_is_invisible_until_published() {
        let dir = scratch("stream");
        let path = dir.join("image.seg");
        let staged = publish_durable(&path, |out| {
            out.write_all(b"first ")?;
            out.write_all(b"second")?;
            assert!(!path.exists(), "nothing is published while streaming");
            Ok(staging_path(&path))
        })
        .unwrap();
        assert_eq!(staged, dir.join("image.seg.tmp"));
        assert_eq!(fs::read(&path).unwrap(), b"first second");
        // A failing stream publishes nothing.
        let other = dir.join("other.seg");
        let err = publish_durable(&other, |_| Err::<(), _>(io::Error::other("boom")));
        assert!(err.is_err() && !other.exists());
        assert!(!staging_path(&path).exists());
        fswitness::assert_dir_settled(&dir);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parent_dir_falls_back_to_dot() {
        assert_eq!(parent_dir(Path::new("meta")), PathBuf::from("."));
        assert_eq!(parent_dir(Path::new("a/b/meta")), PathBuf::from("a/b"));
    }
}
