//! The Auxiliary Directory: incorporated services and their capabilities.

use crate::error::CatalogError;
use msql_lang::{CommitCapability, Incorporate};
use std::collections::BTreeMap;

/// One incorporated service (LDBMS), as recorded by `INCORPORATE SERVICE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceEntry {
    /// Service name.
    pub name: String,
    /// Network site where the service listens (defaults to the service name
    /// when INCORPORATE gives no `SITE`).
    pub site: String,
    /// `CONNECTMODE CONNECT` — the service hosts multiple databases.
    pub multi_database: bool,
    /// Default commit mode for DML.
    pub commit_mode: CommitCapability,
    /// Override for CREATE statements.
    pub create_mode: Option<CommitCapability>,
    /// Override for INSERT statements.
    pub insert_mode: Option<CommitCapability>,
    /// Override for DROP statements.
    pub drop_mode: Option<CommitCapability>,
}

impl ServiceEntry {
    /// Builds an entry from an INCORPORATE statement.
    pub fn from_incorporate(inc: &Incorporate) -> Self {
        ServiceEntry {
            name: inc.service.to_ascii_lowercase(),
            site: inc.site.clone().unwrap_or_else(|| inc.service.clone()).to_ascii_lowercase(),
            multi_database: inc.multi_database,
            commit_mode: inc.commit_mode,
            create_mode: inc.create_mode,
            insert_mode: inc.insert_mode,
            drop_mode: inc.drop_mode,
        }
    }

    /// True when the service exposes a prepared-to-commit state for DML —
    /// the property the vital-set machinery needs.
    pub fn supports_2pc(&self) -> bool {
        self.commit_mode == CommitCapability::TwoPhase
    }

    /// Effective commit mode for CREATE.
    pub fn create_capability(&self) -> CommitCapability {
        self.create_mode.unwrap_or(self.commit_mode)
    }

    /// Effective commit mode for INSERT.
    pub fn insert_capability(&self) -> CommitCapability {
        self.insert_mode.unwrap_or(self.commit_mode)
    }
}

/// The Auxiliary Directory: `service name → entry`.
#[derive(Debug, Clone, Default)]
pub struct AuxiliaryDirectory {
    services: BTreeMap<String, ServiceEntry>,
}

impl AuxiliaryDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        AuxiliaryDirectory::default()
    }

    /// Applies an INCORPORATE statement. Re-incorporating an existing
    /// service replaces its entry (capabilities may have been upgraded).
    pub fn incorporate(&mut self, inc: &Incorporate) -> ServiceEntry {
        let entry = ServiceEntry::from_incorporate(inc);
        self.services.insert(entry.name.clone(), entry.clone());
        entry
    }

    /// Adds a pre-built entry (used by programmatic federation setup).
    pub fn insert(&mut self, entry: ServiceEntry) {
        self.services.insert(entry.name.clone(), entry);
    }

    /// Looks a service up.
    pub fn service(&self, name: &str) -> Result<&ServiceEntry, CatalogError> {
        self.services
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| CatalogError::UnknownService(name.to_string()))
    }

    /// Removes a service.
    pub fn remove(&mut self, name: &str) -> Result<ServiceEntry, CatalogError> {
        self.services
            .remove(&name.to_ascii_lowercase())
            .ok_or_else(|| CatalogError::UnknownService(name.to_string()))
    }

    /// All incorporated services, sorted by name.
    pub fn services(&self) -> impl Iterator<Item = &ServiceEntry> {
        self.services.values()
    }

    /// Number of incorporated services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True when nothing has been incorporated.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msql_lang::{parse_statement, Statement};

    fn incorporate(sql: &str) -> Incorporate {
        let Statement::Incorporate(inc) = parse_statement(sql).unwrap() else { panic!() };
        inc
    }

    #[test]
    fn incorporate_records_capabilities() {
        let mut ad = AuxiliaryDirectory::new();
        let entry = ad.incorporate(&incorporate(
            "INCORPORATE SERVICE Oracle1 SITE Site1 CONNECTMODE CONNECT COMMITMODE NOCOMMIT CREATE COMMIT",
        ));
        assert_eq!(entry.name, "oracle1");
        assert_eq!(entry.site, "site1");
        assert!(entry.supports_2pc());
        assert_eq!(entry.create_capability(), CommitCapability::AutoCommit);
        assert_eq!(entry.insert_capability(), CommitCapability::TwoPhase);
        assert_eq!(ad.len(), 1);
    }

    #[test]
    fn site_defaults_to_service_name() {
        let mut ad = AuxiliaryDirectory::new();
        let entry = ad.incorporate(&incorporate(
            "INCORPORATE SERVICE sybase1 CONNECTMODE NOCONNECT COMMITMODE COMMIT",
        ));
        assert_eq!(entry.site, "sybase1");
        assert!(!entry.supports_2pc());
        assert!(!entry.multi_database);
    }

    #[test]
    fn reincorporation_replaces_entry() {
        let mut ad = AuxiliaryDirectory::new();
        ad.incorporate(&incorporate("INCORPORATE SERVICE s CONNECTMODE CONNECT COMMITMODE COMMIT"));
        ad.incorporate(&incorporate(
            "INCORPORATE SERVICE s CONNECTMODE CONNECT COMMITMODE NOCOMMIT",
        ));
        assert!(ad.service("s").unwrap().supports_2pc());
        assert_eq!(ad.len(), 1);
    }

    #[test]
    fn unknown_service_is_an_error() {
        let ad = AuxiliaryDirectory::new();
        assert!(matches!(ad.service("ghost"), Err(CatalogError::UnknownService(_))));
    }

    #[test]
    fn remove_service() {
        let mut ad = AuxiliaryDirectory::new();
        ad.incorporate(&incorporate("INCORPORATE SERVICE s CONNECTMODE CONNECT COMMITMODE COMMIT"));
        ad.remove("S").unwrap();
        assert!(ad.is_empty());
    }

    #[test]
    fn services_are_sorted() {
        let mut ad = AuxiliaryDirectory::new();
        for name in ["zeta", "alpha", "mid"] {
            ad.incorporate(&incorporate(&format!(
                "INCORPORATE SERVICE {name} CONNECTMODE CONNECT COMMITMODE COMMIT"
            )));
        }
        let names: Vec<&str> = ad.services().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
