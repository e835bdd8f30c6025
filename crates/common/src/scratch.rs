//! A self-removing scratch directory for tests that touch the filesystem.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// `<temp dir>/o2pc-<name>-<pid>`, created empty and removed again on drop —
/// so a test leaves nothing behind whether it passes or panics. Derefs to
/// its [`Path`].
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create the directory, wiping anything a killed earlier run left there.
    pub fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("o2pc-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
