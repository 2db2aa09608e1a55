//! Unified node configuration: one layered options struct for every way
//! a node comes up.
//!
//! Historically the knobs were scattered — `SystemConfig` (consensus +
//! threads) lived here, `TransportMode` in the fabric, and `rdb-node`
//! re-plumbed all of them through ad-hoc flags. [`NodeOptions`]
//! consolidates them:
//!
//! ```text
//! NodeOptions
//! ├── system:    SystemConfig   consensus, batching, threads, crypto, durability
//! ├── transport: TransportMode  in-memory switchboard or TCP
//! ├── peers:     PeerMap        replica id → TCP address (empty ⇒ in-memory)
//! ├── client_keys             client identities to derive keys for
//! └── seed                    deterministic key-generation seed
//! ```
//!
//! `SystemBuilder`, `start_replica`, `client_net` and the `rdb-node`
//! binary all consume the same struct, and [`NodeOptions::validate`] is
//! the single place cross-field consistency is checked. Code sets its
//! fields through `SystemBuilder` or by plain assignment. The `rdb-node`
//! config file carries a `[node]` section parsed by
//! [`NodeOptions::apply_toml`] alongside the existing `[peers]` section;
//! its keys and `rdb-node`'s equivalent flags are both parsed by
//! [`NodeOptions::set`], the one place option values are read from text.

use crate::config::{CryptoScheme, FsyncMode, ProtocolKind, SystemConfig};
use crate::error::{CommonError, Result};
use crate::peers::PeerMap;
use crate::sections;

/// Which transport backend a deployment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// The in-memory switchboard: fastest, zero-copy, the default for
    /// tests and simulation-adjacent runs.
    #[default]
    InMemory,
    /// Real TCP sockets driven by the nonblocking reactor — loopback
    /// inside one process or a genuine multi-process cluster; every
    /// message crosses a socket with length-prefixed framing either way.
    Tcp,
}

/// Everything a node needs to come up, in one place — see the module
/// docs for the layering.
///
/// All processes of one cluster must agree on `system`, `client_keys`
/// and `seed`, so every node derives the same key registry.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// The cluster-wide system configuration (`n` must equal the peer
    /// map's size when the map is non-empty).
    pub system: SystemConfig,
    /// Which transport backend to run.
    pub transport: TransportMode,
    /// Replica id → TCP address, identical on every node. Empty for
    /// purely in-memory deployments.
    pub peers: PeerMap,
    /// Client identities to generate keys for.
    pub client_keys: usize,
    /// Deterministic key-generation seed shared by all nodes.
    pub seed: u64,
}

/// The laptop-scale defaults shared by both constructors (the paper-scale
/// population lives in the simulator, not the threaded runtime).
fn scale_down(system: &mut SystemConfig) {
    system.num_clients = 8;
    system.table_size = 4_096;
}

impl NodeOptions {
    /// Options for a TCP cluster of `peers.len()` replicas with
    /// laptop-scale defaults.
    ///
    /// # Errors
    /// Returns `InvalidConfig` if the map is not a dense `0..n`
    /// membership of at least 4 replicas.
    pub fn new(peers: PeerMap) -> Result<Self> {
        peers.validate_dense()?;
        let mut system = SystemConfig::new(peers.len())?;
        scale_down(&mut system);
        Ok(NodeOptions {
            system,
            transport: TransportMode::Tcp,
            peers,
            client_keys: 8,
            seed: 42,
        })
    }

    /// Options for an in-memory deployment of `n` replicas with
    /// laptop-scale defaults.
    ///
    /// # Errors
    /// Returns `InvalidConfig` if `n < 4`.
    pub fn in_memory(n: usize) -> Result<Self> {
        let mut system = SystemConfig::new(n)?;
        scale_down(&mut system);
        Ok(NodeOptions {
            system,
            transport: TransportMode::InMemory,
            peers: PeerMap::new(),
            client_keys: 8,
            seed: 42,
        })
    }

    // --- validation --------------------------------------------------------

    /// Checks the whole option tree for consistency — the single
    /// validation point every launch path goes through.
    ///
    /// # Errors
    /// Returns `InvalidConfig` on any inconsistent knob: the system
    /// config's own rules, a peer map that is non-dense or disagrees
    /// with `n`, or a zero client-key population.
    pub fn validate(&self) -> Result<()> {
        self.system.validate()?;
        if !self.peers.is_empty() {
            self.peers.validate_dense()?;
            if self.peers.len() != self.system.n {
                return Err(CommonError::InvalidConfig(format!(
                    "peer map has {} replicas but the system config says n={}",
                    self.peers.len(),
                    self.system.n
                )));
            }
        }
        if self.client_keys == 0 {
            return Err(CommonError::InvalidConfig(
                "need at least one client key".into(),
            ));
        }
        Ok(())
    }

    // --- config-file support ------------------------------------------------

    /// Applies a `[node]` section from the same minimal TOML subset the
    /// peer map uses, overriding the current values:
    ///
    /// ```toml
    /// [node]
    /// protocol = "zyzzyva"        # or "pbft"
    /// crypto = "cmac-ed25519"     # or "cmac" | "nocrypto" | "ed25519" | "rsa"
    /// batch_size = 100
    /// checkpoint_interval = 10000
    /// consensus_instances = 1
    /// client_keys = 64
    /// seed = 42
    /// table_size = 65536
    /// data_dir = "/var/lib/rdb"   # durable state root (unset ⇒ memory-only)
    /// fsync = "group"             # "always" | "group" | "never"
    /// group_commit_window_us = 1000
    /// ```
    ///
    /// Files without a `[node]` section are a no-op, so a bare peer map
    /// keeps working.
    ///
    /// # Errors
    /// Returns `InvalidConfig` on malformed lines, bad values, or keys
    /// this version does not know (typos must not silently configure
    /// nothing).
    pub fn apply_toml(&mut self, text: &str) -> Result<()> {
        for entry in sections::entries(text, "[node]") {
            let (key, value) = entry.map_err(|line| {
                CommonError::InvalidConfig(format!("node line '{line}' is not key = value"))
            })?;
            self.set(key, value)?;
        }
        Ok(())
    }

    /// Sets one option from its textual form — the single parser behind
    /// both the `[node]` section's `key = value` lines and `rdb-node`'s
    /// `--key value` flags, so the two cannot drift apart.
    ///
    /// # Errors
    /// Returns `InvalidConfig` for an unknown key or a value the key
    /// cannot take.
    pub fn set(&mut self, key: &str, value: &str) -> Result<()> {
        let bad = |what: &str| {
            CommonError::InvalidConfig(format!("node key '{key}': bad {what} '{value}'"))
        };
        match key {
            "protocol" => {
                self.system.protocol = match value.to_ascii_lowercase().as_str() {
                    "pbft" => ProtocolKind::Pbft,
                    "zyzzyva" => ProtocolKind::Zyzzyva,
                    _ => return Err(bad("protocol")),
                }
            }
            "crypto" => {
                self.system.crypto = match value.to_ascii_lowercase().as_str() {
                    "nocrypto" | "none" => CryptoScheme::NoCrypto,
                    "ed25519" => CryptoScheme::Ed25519,
                    "rsa" => CryptoScheme::Rsa,
                    "cmac" | "cmac-ed25519" | "cmac_ed25519" | "cmac+ed25519" => {
                        CryptoScheme::CmacEd25519
                    }
                    _ => return Err(bad("crypto scheme")),
                }
            }
            "batch_size" => self.system.batch_size = value.parse().map_err(|_| bad("integer"))?,
            "checkpoint_interval" => {
                self.system.checkpoint_interval = value.parse().map_err(|_| bad("integer"))?
            }
            "client_keys" => {
                let keys: usize = value.parse().map_err(|_| bad("integer"))?;
                self.client_keys = keys;
                self.system.num_clients = keys;
            }
            "seed" => self.seed = value.parse().map_err(|_| bad("integer"))?,
            "table_size" => self.system.table_size = value.parse().map_err(|_| bad("integer"))?,
            "view_timeout_ms" => {
                self.system.view_timeout_ms = value.parse().map_err(|_| bad("integer"))?
            }
            "consensus_instances" => {
                self.system.consensus_instances = value.parse().map_err(|_| bad("integer"))?
            }
            "data_dir" => self.system.durability.data_dir = Some(value.to_string()),
            "fsync" => {
                self.system.durability.fsync = match value.to_ascii_lowercase().as_str() {
                    "always" => FsyncMode::Always,
                    "group" => FsyncMode::Group,
                    "never" => FsyncMode::Never,
                    _ => return Err(bad("fsync mode")),
                }
            }
            "group_commit_window_us" => {
                self.system.durability.group_commit_window_us =
                    value.parse().map_err(|_| bad("integer"))?
            }
            _ => {
                return Err(CommonError::InvalidConfig(format!(
                    "unknown [node] key '{key}'"
                )))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ReplicaId;

    fn four_peers() -> PeerMap {
        let mut map = PeerMap::new();
        for i in 0..4u32 {
            map.insert(
                ReplicaId(i),
                format!("127.0.0.1:{}", 7000 + i).parse().unwrap(),
            );
        }
        map
    }

    #[test]
    fn cluster_constructor_matches_old_node_config_defaults() {
        let opts = NodeOptions::new(four_peers()).unwrap();
        assert_eq!(opts.system.n, 4);
        assert_eq!(opts.system.num_clients, 8);
        assert_eq!(opts.system.table_size, 4_096);
        assert_eq!(opts.client_keys, 8);
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.transport, TransportMode::Tcp);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn in_memory_constructor_defaults() {
        let opts = NodeOptions::in_memory(4).unwrap();
        assert_eq!(opts.transport, TransportMode::InMemory);
        assert!(opts.peers.is_empty());
        assert!(opts.validate().is_ok());
        assert!(NodeOptions::in_memory(3).is_err());
    }

    #[test]
    fn builders_layer_over_system_and_net() {
        let mut opts = NodeOptions::in_memory(4).unwrap();
        for (key, value) in [
            ("protocol", "zyzzyva"),
            ("batch_size", "50"),
            ("client_keys", "32"),
            ("seed", "7"),
        ] {
            opts.set(key, value).unwrap();
        }
        opts.transport = TransportMode::Tcp;
        assert_eq!(opts.system.protocol, ProtocolKind::Zyzzyva);
        assert_eq!(opts.system.batch_size, 50);
        assert_eq!(opts.system.num_clients, 32);
        assert_eq!(opts.client_keys, 32);
        assert_eq!(opts.seed, 7);
        assert!(opts.validate().is_ok());
        // The transport's sizing is not a node option.
        assert!(opts.set("event_loops", "4").is_err());
    }

    #[test]
    fn validation_is_centralized() {
        // Peer map vs n disagreement.
        let mut opts = NodeOptions::new(four_peers()).unwrap();
        opts.system = SystemConfig::new(7).unwrap();
        assert!(opts.validate().is_err());

        // System-level rules still apply through the same entry point.
        let mut opts = NodeOptions::in_memory(4).unwrap();
        opts.system.batch_size = 0;
        assert!(opts.validate().is_err());
    }

    #[test]
    fn node_section_round_trips_through_toml() {
        let text = r#"
[node]
protocol = "zyzzyva"
crypto = "ed25519"
batch_size = 25
client_keys = 64
seed = 9
table_size = 100000

[peers]
0 = "127.0.0.1:7100"
1 = "127.0.0.1:7101"
2 = "127.0.0.1:7102"
3 = "127.0.0.1:7103"
"#;
        let peers = PeerMap::parse_toml(text).unwrap();
        let mut opts = NodeOptions::new(peers).unwrap();
        opts.apply_toml(text).unwrap();
        assert_eq!(opts.system.protocol, ProtocolKind::Zyzzyva);
        assert_eq!(opts.system.crypto, CryptoScheme::Ed25519);
        assert_eq!(opts.system.batch_size, 25);
        assert_eq!(opts.client_keys, 64);
        assert_eq!(opts.system.num_clients, 64);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.system.table_size, 100_000);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn consensus_instances_layer_and_toml() {
        let mut opts = NodeOptions::in_memory(4).unwrap();
        opts.set("consensus_instances", "2").unwrap();
        assert_eq!(opts.system.consensus_instances, 2);
        assert!(opts.validate().is_ok());

        let mut opts = NodeOptions::new(four_peers()).unwrap();
        opts.apply_toml("[node]\nconsensus_instances = 4\n")
            .unwrap();
        assert_eq!(opts.system.consensus_instances, 4);
        assert!(opts.validate().is_ok());

        // Zyzzyva + multi-primary is rejected through the same entry point.
        let mut opts = NodeOptions::in_memory(4).unwrap();
        opts.system.protocol = ProtocolKind::Zyzzyva;
        opts.system.consensus_instances = 2;
        assert!(opts.validate().is_err());
    }

    #[test]
    fn durability_layer_and_toml() {
        let mut opts = NodeOptions::in_memory(4).unwrap();
        opts.set("data_dir", "/tmp/rdb-data").unwrap();
        opts.set("fsync", "always").unwrap();
        opts.set("group_commit_window_us", "250").unwrap();
        assert_eq!(
            opts.system.durability.data_dir.as_deref(),
            Some("/tmp/rdb-data")
        );
        assert_eq!(opts.system.durability.fsync, FsyncMode::Always);
        assert_eq!(opts.system.durability.group_commit_window_us, 250);
        assert!(opts.validate().is_ok());

        let mut opts = NodeOptions::new(four_peers()).unwrap();
        opts.apply_toml(
            "[node]\ndata_dir = \"/var/lib/rdb\"\nfsync = \"never\"\ngroup_commit_window_us = 4000\n",
        )
        .unwrap();
        assert_eq!(
            opts.system.durability.data_dir.as_deref(),
            Some("/var/lib/rdb")
        );
        assert_eq!(opts.system.durability.fsync, FsyncMode::Never);
        assert_eq!(opts.system.durability.group_commit_window_us, 4_000);
        assert!(opts.validate().is_ok());

        assert!(opts.apply_toml("[node]\nfsync = \"sometimes\"\n").is_err());
        // A zero group-commit window fails through the same entry point.
        let mut opts = NodeOptions::in_memory(4).unwrap();
        opts.system.durability.group_commit_window_us = 0;
        assert!(opts.validate().is_err());
    }

    #[test]
    fn missing_node_section_is_a_no_op() {
        let mut opts = NodeOptions::new(four_peers()).unwrap();
        let before = opts.clone();
        opts.apply_toml("[peers]\n0 = \"127.0.0.1:7000\"\n")
            .unwrap();
        assert_eq!(opts.system, before.system);
        assert_eq!(opts.seed, before.seed);
    }

    #[test]
    fn unknown_and_malformed_node_keys_rejected() {
        let mut opts = NodeOptions::new(four_peers()).unwrap();
        assert!(opts.apply_toml("[node]\nbatchsize = 10\n").is_err());
        assert!(opts.apply_toml("[node]\nbatch_size = ten\n").is_err());
        assert!(opts.apply_toml("[node]\nprotocol = \"raft\"\n").is_err());
        assert!(opts.apply_toml("[node]\njust a line\n").is_err());
    }

    #[test]
    fn set_accepts_every_spelling_the_flags_and_the_file_ever_took() {
        let mut opts = NodeOptions::new(four_peers()).unwrap();
        // `--crypto cmac` was flag-only and `crypto = "cmac-ed25519"`
        // file-only before the two parsers merged.
        for spelling in ["cmac", "cmac-ed25519", "cmac_ed25519", "CMAC+ED25519"] {
            opts.system.crypto = CryptoScheme::NoCrypto;
            opts.set("crypto", spelling).unwrap();
            assert_eq!(opts.system.crypto, CryptoScheme::CmacEd25519, "{spelling}");
        }
        opts.set("crypto", "none").unwrap();
        assert_eq!(opts.system.crypto, CryptoScheme::NoCrypto);
        opts.set("client_keys", "16").unwrap();
        assert_eq!((opts.client_keys, opts.system.num_clients), (16, 16));
        assert!(opts.set("crypto", "rot13").is_err());
        assert!(opts.set("no_such_key", "1").is_err());
    }
}
