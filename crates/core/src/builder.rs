//! Fluent, validating construction of a [`QSystem`].
//!
//! [`QSystem::builder`] replaces the old `QSystem::new` +
//! mutate-before-first-query dance (`new`, then `add_matcher`, then hope the
//! config was sane) with one validated build step:
//!
//! ```no_run
//! # fn demo(catalog: q_storage::Catalog) -> Result<(), q_core::QError> {
//! use q_core::{QConfig, QSystem};
//! use q_matchers::{MadMatcher, MetadataMatcher};
//!
//! let mut q = QSystem::builder()
//!     .catalog(catalog)
//!     .config(QConfig::default())
//!     .matcher(Box::new(MetadataMatcher::new()))
//!     .matcher(Box::new(MadMatcher::new()))
//!     .build()?;
//! # let _ = &mut q;
//! # Ok(())
//! # }
//! ```
//!
//! `build()` rejects configurations that would make the system unusable —
//! `top_k == 0`, an empty catalog, a non-positive minimum edge cost — with a
//! structured [`QError::InvalidBuild`] instead of panicking or silently
//! serving empty views later.

use q_matchers::SchemaMatcher;
use q_storage::{Catalog, SourceSpec};

use crate::config::QConfig;
use crate::error::QError;
use crate::system::QSystem;

/// Builder returned by [`QSystem::builder`]; see the module docs.
pub struct QSystemBuilder {
    catalog: Catalog,
    config: QConfig,
    matchers: Vec<Box<dyn SchemaMatcher + Send + Sync>>,
    sources: Vec<SourceSpec>,
}

impl Default for QSystemBuilder {
    fn default() -> Self {
        QSystemBuilder {
            catalog: Catalog::new(),
            config: QConfig::default(),
            matchers: Vec::new(),
            sources: Vec::new(),
        }
    }
}

impl QSystem {
    /// Start building a Q system; see [`QSystemBuilder`].
    pub fn builder() -> QSystemBuilder {
        QSystemBuilder::default()
    }
}

impl QSystemBuilder {
    /// Use an already-loaded catalog as the initial federation. Combines
    /// with [`QSystemBuilder::source`]: sources are loaded into this catalog
    /// at `build()` time.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Replace the default [`QConfig`].
    pub fn config(mut self, config: QConfig) -> Self {
        self.config = config;
        self
    }

    /// Register a schema matcher. Matchers are consulted in registration
    /// order when new sources arrive. May be called repeatedly.
    pub fn matcher(mut self, matcher: Box<dyn SchemaMatcher + Send + Sync>) -> Self {
        self.matchers.push(matcher);
        self
    }

    /// Add a source specification to the initial catalog. Loaded at
    /// `build()` time, before the search graph and indexes are constructed —
    /// equivalent to including it in the loaded catalog, not to
    /// [`QSystem::register_source`] (no matchers run). May be called
    /// repeatedly.
    pub fn source(mut self, spec: SourceSpec) -> Self {
        self.sources.push(spec);
        self
    }

    /// Validate the configuration, load any pending sources, and construct
    /// the system (search graph, keyword index and value index are built
    /// here, exactly as `QSystem::new` does).
    pub fn build(self) -> Result<QSystem, QError> {
        let QSystemBuilder {
            mut catalog,
            config,
            matchers,
            sources,
        } = self;

        if config.top_k == 0 {
            return Err(QError::InvalidBuild {
                field: "top_k",
                reason: "must be at least 1 (no ranked queries could ever be kept)".into(),
            });
        }
        if config.top_y == 0 {
            return Err(QError::InvalidBuild {
                field: "top_y",
                reason: "must be at least 1 (no candidate alignments could ever be kept)".into(),
            });
        }
        if config.max_answers == 0 {
            return Err(QError::InvalidBuild {
                field: "max_answers",
                reason: "must be at least 1 (views could never materialise a row)".into(),
            });
        }
        if config.min_edge_cost.is_nan() || config.min_edge_cost <= 0.0 {
            return Err(QError::InvalidBuild {
                field: "min_edge_cost",
                reason: format!(
                    "must be positive to keep Steiner search well-defined, got {}",
                    config.min_edge_cost
                ),
            });
        }

        for spec in &sources {
            spec.load_into(&mut catalog)
                .map_err(|source| QError::SourceLoad {
                    source_name: spec.name.clone(),
                    source,
                })?;
        }
        if catalog.relations().is_empty() {
            return Err(QError::InvalidBuild {
                field: "catalog",
                reason: "is empty — provide a catalog or at least one source".into(),
            });
        }

        let mut system = QSystem::new(catalog, config);
        for matcher in matchers {
            system.add_matcher(matcher);
        }
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_matchers::{MadMatcher, MetadataMatcher};
    use q_storage::RelationSpec;

    fn go_spec() -> SourceSpec {
        SourceSpec::new("go").relation(
            RelationSpec::new("go_term", &["acc", "name"])
                .row(["GO:1", "plasma membrane"])
                .row(["GO:2", "kinase activity"]),
        )
    }

    #[test]
    fn builder_constructs_a_working_system_from_sources() {
        let mut q = QSystem::builder()
            .source(go_spec())
            .matcher(Box::new(MetadataMatcher::new()))
            .matcher(Box::new(MadMatcher::new()))
            .build()
            .expect("valid configuration builds");
        let view_id = q.create_view(&["plasma membrane", "acc"]).unwrap();
        assert!(!q.view(view_id).unwrap().answers.is_empty());
    }

    #[test]
    fn builder_matches_the_manual_construction_path() {
        let catalog = q_storage::loader::load_catalog(&[go_spec()]).unwrap();
        let built = QSystem::builder().catalog(catalog.clone()).build().unwrap();
        let manual = QSystem::new(catalog, QConfig::default());
        // Same graph and the same answers for the same query.
        assert_eq!(built.graph().node_count(), manual.graph().node_count());
        assert_eq!(built.graph().edge_count(), manual.graph().edge_count());
        let request = crate::QueryRequest::new(["plasma membrane"]);
        assert_eq!(
            built.answer(&request).unwrap(),
            manual.answer(&request).unwrap()
        );
    }

    #[test]
    fn build_rejects_unusable_configurations() {
        let zero_k = QSystem::builder()
            .source(go_spec())
            .config(QConfig {
                top_k: 0,
                ..QConfig::default()
            })
            .build()
            .err()
            .expect("top_k == 0 must be rejected");
        assert!(matches!(
            zero_k,
            QError::InvalidBuild { field: "top_k", .. }
        ));

        let bad_cost = QSystem::builder()
            .source(go_spec())
            .config(QConfig {
                min_edge_cost: 0.0,
                ..QConfig::default()
            })
            .build()
            .err()
            .expect("non-positive min_edge_cost must be rejected");
        assert!(matches!(
            bad_cost,
            QError::InvalidBuild {
                field: "min_edge_cost",
                ..
            }
        ));

        let empty = QSystem::builder()
            .build()
            .err()
            .expect("an empty catalog must be rejected");
        assert!(matches!(
            empty,
            QError::InvalidBuild {
                field: "catalog",
                ..
            }
        ));
    }

    #[test]
    fn build_surfaces_source_load_failures_with_context() {
        let err = QSystem::builder()
            .source(go_spec())
            .source(go_spec()) // duplicate source name
            .build()
            .err()
            .expect("duplicate source must fail to load");
        match err {
            QError::SourceLoad {
                source_name,
                source,
            } => {
                assert_eq!(source_name, "go");
                assert!(matches!(
                    source,
                    q_storage::StorageError::DuplicateSource(_)
                ));
            }
            other => panic!("expected SourceLoad, got {other:?}"),
        }
    }
}
