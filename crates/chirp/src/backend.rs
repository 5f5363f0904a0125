//! Storage backends behind the proxy.
//!
//! "The proxy allows the starter to transparently add additional I/O
//! functionality to the job without placing any burden on the user" (§2.2).
//! A [`FileBackend`] is whatever the proxy ultimately talks to: the local
//! scratch space, or the Condor remote I/O channel to the shadow. It
//! offers only what the proxy's operations need: existence, size, create,
//! positional read and append.
//!
//! Backends report failures as [`BackendFailure`]: either an in-vocabulary
//! [`crate::proto::ChirpError`]-equivalent condition, or an
//! [`EnvFault`] — an environmental failure (file system offline, expired
//! credentials, network timeout) that no Chirp operation's vocabulary
//! admits, and which therefore must escape.

use errorscope::error::codes;
use errorscope::{ErrorCode, Scope};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Environmental failures that lie outside every Chirp vocabulary. These
/// are exactly the §4 examples: "errors such as 'connection timed out' and
/// 'credentials expired' could technically be represented by an
/// IOException … they violated a program's reasonable expectations of the
/// I/O interface."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvFault {
    /// The backing file system is offline (e.g. the submitter's home file
    /// system, reached via the shadow).
    FilesystemOffline,
    /// The security credentials for the remote channel have expired.
    CredentialsExpired,
    /// The remote channel stopped answering.
    ConnectionTimedOut,
}

impl EnvFault {
    /// The [`errorscope`] error code.
    pub fn code(self) -> ErrorCode {
        match self {
            EnvFault::FilesystemOffline => codes::FILESYSTEM_OFFLINE,
            EnvFault::CredentialsExpired => codes::CREDENTIALS_EXPIRED,
            EnvFault::ConnectionTimedOut => codes::CONNECTION_TIMED_OUT,
        }
    }

    /// The scope each fault invalidates. An offline home file system or a
    /// dead credential invalidates the job's access to *local* (submission-
    /// side) resources — the shadow's domain. A timeout is indeterminate
    /// and starts at network scope (§5).
    pub fn scope(self) -> Scope {
        match self {
            EnvFault::FilesystemOffline => Scope::LocalResource,
            EnvFault::CredentialsExpired => Scope::LocalResource,
            EnvFault::ConnectionTimedOut => Scope::Network,
        }
    }
}

impl fmt::Display for EnvFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// How a backend operation can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendFailure {
    /// No such file.
    NotFound,
    /// Permission denied.
    AccessDenied,
    /// Quota exhausted.
    DiskFull,
    /// An environmental fault that must escape the protocol.
    Env(EnvFault),
}

/// Result alias for backend operations.
pub type BResult<T> = Result<T, BackendFailure>;

/// A flat-namespace file store.
pub trait FileBackend: Send {
    /// Does the path exist?
    fn exists(&mut self, path: &str) -> BResult<bool>;
    /// Size of the file in bytes.
    fn size(&mut self, path: &str) -> BResult<u64>;
    /// Create (or truncate) a file.
    fn create(&mut self, path: &str) -> BResult<()>;
    /// Read up to `len` bytes starting at `offset`.
    fn read_at(&mut self, path: &str, offset: u64, len: u32) -> BResult<Vec<u8>>;
    /// Append bytes to the end of the file.
    fn append(&mut self, path: &str, data: &[u8]) -> BResult<()>;
}

/// An in-memory file store with quota, read-only paths, and injectable
/// environmental faults. Used both as the sandbox scratch space and — with
/// faults injected — as the stand-in for the shadow's remote channel.
pub struct MemFs {
    files: BTreeMap<String, Vec<u8>>,
    readonly: BTreeSet<String>,
    quota: u64,
    used: u64,
    env_fault: Option<EnvFault>,
    /// If set, inject `fault_after.1` once `fault_after.0` more operations
    /// have completed — for mid-stream failure tests.
    fault_after: Option<(u64, EnvFault)>,
}

impl Default for MemFs {
    fn default() -> Self {
        MemFs::new(u64::MAX)
    }
}

impl MemFs {
    /// A store with a total byte quota.
    pub fn new(quota: u64) -> MemFs {
        MemFs {
            files: BTreeMap::new(),
            readonly: BTreeSet::new(),
            quota,
            used: 0,
            env_fault: None,
            fault_after: None,
        }
    }

    /// Pre-populate a file (does not count against later quota checks'
    /// ordering — it is charged immediately).
    pub fn put(&mut self, path: &str, data: &[u8]) -> &mut Self {
        if let Some(old) = self.files.insert(path.to_string(), data.to_vec()) {
            self.used -= old.len() as u64;
        }
        self.used += data.len() as u64;
        self
    }

    /// Fetch a file's current contents (test/assertion helper).
    pub fn get(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|v| v.as_slice())
    }

    /// Delete a file if present, releasing its bytes from the quota — the
    /// file vanishing behind the proxy's back, as a test stages it.
    pub fn remove(&mut self, path: &str) -> &mut Self {
        if let Some(old) = self.files.remove(path) {
            self.used -= old.len() as u64;
        }
        self
    }

    /// Mark a path read-only: writes yield `AccessDenied`.
    pub fn set_readonly(&mut self, path: &str) {
        self.readonly.insert(path.to_string());
    }

    /// Inject (or clear) a persistent environmental fault. While set, every
    /// operation fails with it.
    pub fn set_env_fault(&mut self, fault: Option<EnvFault>) {
        self.env_fault = fault;
    }

    /// Inject a fault that fires after `ops` more successful operations.
    pub fn set_fault_after(&mut self, ops: u64, fault: EnvFault) {
        self.fault_after = Some((ops, fault));
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.used
    }

    fn gate(&mut self) -> BResult<()> {
        if let Some(f) = self.env_fault {
            return Err(BackendFailure::Env(f));
        }
        if let Some((remaining, fault)) = self.fault_after.as_mut() {
            if *remaining == 0 {
                let f = *fault;
                self.env_fault = Some(f);
                return Err(BackendFailure::Env(f));
            }
            *remaining -= 1;
        }
        Ok(())
    }
}

impl FileBackend for MemFs {
    fn exists(&mut self, path: &str) -> BResult<bool> {
        self.gate()?;
        Ok(self.files.contains_key(path))
    }

    fn size(&mut self, path: &str) -> BResult<u64> {
        self.gate()?;
        self.files
            .get(path)
            .map(|v| v.len() as u64)
            .ok_or(BackendFailure::NotFound)
    }

    fn create(&mut self, path: &str) -> BResult<()> {
        self.gate()?;
        if self.readonly.contains(path) {
            return Err(BackendFailure::AccessDenied);
        }
        if let Some(old) = self.files.insert(path.to_string(), Vec::new()) {
            self.used -= old.len() as u64;
        }
        Ok(())
    }

    fn read_at(&mut self, path: &str, offset: u64, len: u32) -> BResult<Vec<u8>> {
        self.gate()?;
        let data = self.files.get(path).ok_or(BackendFailure::NotFound)?;
        let start = (offset as usize).min(data.len());
        let end = (start + len as usize).min(data.len());
        Ok(data[start..end].to_vec())
    }

    fn append(&mut self, path: &str, data: &[u8]) -> BResult<()> {
        self.gate()?;
        if self.readonly.contains(path) {
            return Err(BackendFailure::AccessDenied);
        }
        if !self.files.contains_key(path) {
            return Err(BackendFailure::NotFound);
        }
        if self.used + data.len() as u64 > self.quota {
            return Err(BackendFailure::DiskFull);
        }
        self.files.get_mut(path).unwrap().extend_from_slice(data);
        self.used += data.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_file_lifecycle() {
        let mut fs = MemFs::default();
        assert_eq!(fs.exists("a"), Ok(false));
        fs.create("a").unwrap();
        assert_eq!(fs.exists("a"), Ok(true));
        fs.append("a", b"hello ").unwrap();
        fs.append("a", b"world").unwrap();
        assert_eq!(fs.size("a"), Ok(11));
        assert_eq!(fs.read_at("a", 0, 5).unwrap(), b"hello");
        assert_eq!(fs.read_at("a", 6, 100).unwrap(), b"world");
        assert_eq!(fs.read_at("a", 100, 10).unwrap(), b"");
        fs.remove("a");
        assert_eq!(fs.exists("a"), Ok(false));
    }

    #[test]
    fn missing_files_are_not_found() {
        let mut fs = MemFs::default();
        assert_eq!(fs.size("x"), Err(BackendFailure::NotFound));
        assert_eq!(fs.read_at("x", 0, 1), Err(BackendFailure::NotFound));
        assert_eq!(fs.append("x", b"d"), Err(BackendFailure::NotFound));
    }

    #[test]
    fn quota_yields_disk_full() {
        let mut fs = MemFs::new(10);
        fs.create("f").unwrap();
        fs.append("f", b"12345").unwrap();
        fs.append("f", b"67890").unwrap();
        assert_eq!(fs.append("f", b"x"), Err(BackendFailure::DiskFull));
        // Freeing space makes writes possible again.
        fs.remove("f");
        fs.create("g").unwrap();
        assert_eq!(fs.append("g", b"ok"), Ok(()));
        assert_eq!(fs.used(), 2);
    }

    #[test]
    fn readonly_paths_deny_writes() {
        let mut fs = MemFs::default();
        fs.put("etc", b"config");
        fs.set_readonly("etc");
        assert_eq!(fs.append("etc", b"x"), Err(BackendFailure::AccessDenied));
        assert_eq!(fs.create("etc"), Err(BackendFailure::AccessDenied));
        // Reads still work.
        assert_eq!(fs.read_at("etc", 0, 6).unwrap(), b"config");
    }

    #[test]
    fn env_fault_poisons_everything() {
        let mut fs = MemFs::default();
        fs.put("a", b"data");
        fs.set_env_fault(Some(EnvFault::FilesystemOffline));
        assert_eq!(
            fs.read_at("a", 0, 1),
            Err(BackendFailure::Env(EnvFault::FilesystemOffline))
        );
        assert_eq!(
            fs.exists("a"),
            Err(BackendFailure::Env(EnvFault::FilesystemOffline))
        );
        fs.set_env_fault(None);
        assert_eq!(fs.exists("a"), Ok(true));
    }

    #[test]
    fn fault_after_counts_operations() {
        let mut fs = MemFs::default();
        fs.put("a", b"0123456789");
        fs.set_fault_after(2, EnvFault::ConnectionTimedOut);
        assert!(fs.read_at("a", 0, 1).is_ok());
        assert!(fs.read_at("a", 1, 1).is_ok());
        assert_eq!(
            fs.read_at("a", 2, 1),
            Err(BackendFailure::Env(EnvFault::ConnectionTimedOut))
        );
        // And it sticks.
        assert_eq!(
            fs.exists("a"),
            Err(BackendFailure::Env(EnvFault::ConnectionTimedOut))
        );
    }

    #[test]
    fn env_fault_scopes_match_paper() {
        assert_eq!(EnvFault::FilesystemOffline.scope(), Scope::LocalResource);
        assert_eq!(EnvFault::CredentialsExpired.scope(), Scope::LocalResource);
        assert_eq!(EnvFault::ConnectionTimedOut.scope(), Scope::Network);
        assert_eq!(
            EnvFault::FilesystemOffline.code(),
            codes::FILESYSTEM_OFFLINE
        );
    }

    #[test]
    fn put_replaces_and_tracks_usage() {
        let mut fs = MemFs::new(100);
        fs.put("a", b"12345");
        assert_eq!(fs.used(), 5);
        fs.put("a", b"12");
        assert_eq!(fs.used(), 2);
        fs.remove("a").remove("a");
        assert_eq!((fs.used(), fs.get("a")), (0, None));
    }
}
