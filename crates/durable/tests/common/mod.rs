//! Case directories shared by the durable integration tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A case's directory under the system temp directory, removed when the
/// guard drops: when the case ends, passing or failing.
pub struct CaseDir(PathBuf);

impl Drop for CaseDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for CaseDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for CaseDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl From<&CaseDir> for PathBuf {
    fn from(dir: &CaseDir) -> PathBuf {
        dir.0.clone()
    }
}

/// A fresh `swsample-<suite>-<tag>-<pid>-<n>` case directory, unique
/// within the process.
pub fn case_dir(suite: &str, tag: &str) -> CaseDir {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("swsample-{suite}-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CaseDir(dir)
}
