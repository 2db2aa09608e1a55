//! Peer address maps for multi-process deployments.
//!
//! A [`PeerMap`] names the TCP endpoint of every replica in a cluster.
//! It can be written two ways, both understood by `rdb-node`:
//!
//! - a flag string: `--peers 0=127.0.0.1:7000,1=127.0.0.1:7001,…`
//! - a config file in a minimal TOML subset:
//!
//! ```toml
//! [peers]
//! 0 = "127.0.0.1:7000"
//! 1 = "127.0.0.1:7001"
//! 2 = "127.0.0.1:7002"
//! 3 = "127.0.0.1:7003"
//! ```
//!
//! Clients are deliberately absent from the map: a client dials every
//! replica and announces itself over the connection, so replica replies
//! travel back over the client-initiated socket (NAT-friendly, and no
//! client ports to coordinate).

use crate::error::{CommonError, Result};
use crate::ids::ReplicaId;
use crate::sections;
use std::collections::BTreeMap;
use std::net::SocketAddr;

/// Replica id → socket address, for the TCP transport and `rdb-node`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerMap {
    replicas: BTreeMap<u32, SocketAddr>,
}

impl PeerMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the address of `id`.
    pub fn insert(&mut self, id: ReplicaId, addr: SocketAddr) {
        self.replicas.insert(id.0, addr);
    }

    /// The address of replica `id`, if known.
    pub fn get(&self, id: ReplicaId) -> Option<SocketAddr> {
        self.replicas.get(&id.0).copied()
    }

    /// Number of replicas in the map.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Iterates `(replica, address)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ReplicaId, SocketAddr)> + '_ {
        self.replicas.iter().map(|(id, a)| (ReplicaId(*id), *a))
    }

    /// Checks the ids are exactly `0..len` (a dense cluster membership).
    ///
    /// # Errors
    /// Returns [`CommonError::InvalidConfig`] on gaps or an offset range.
    pub fn validate_dense(&self) -> Result<()> {
        for (want, have) in self.replicas.keys().enumerate() {
            if *have != want as u32 {
                return Err(CommonError::InvalidConfig(format!(
                    "peer map is not dense: expected replica {want}, found {have}"
                )));
            }
        }
        Ok(())
    }

    /// Parses the inline flag form `0=host:port,1=host:port,…`.
    ///
    /// # Errors
    /// Returns [`CommonError::InvalidConfig`] on malformed entries,
    /// unparsable addresses, or duplicate ids.
    pub fn parse_flag(spec: &str) -> Result<Self> {
        let mut map = PeerMap::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (id, addr) = entry.split_once('=').ok_or_else(|| {
                CommonError::InvalidConfig(format!("peer entry '{entry}' is not id=addr"))
            })?;
            map.add_parsed(id.trim(), addr.trim())?;
        }
        Ok(map)
    }

    /// Parses the config-file form: `id = "addr"` lines, optionally under a
    /// `[peers]` section. Unrelated sections and `#` comments are ignored,
    /// so the peer map can live inside a larger node config file.
    ///
    /// # Errors
    /// Returns [`CommonError::InvalidConfig`] on malformed lines inside the
    /// peers section or duplicate ids.
    pub fn parse_toml(text: &str) -> Result<Self> {
        let mut map = PeerMap::new();
        // If a [peers] section exists, only its lines are peer entries —
        // top-level keys like `protocol = "pbft"` before it stay ignored.
        // Without any [peers] header, the lines above the first header are
        // a bare list of `id = "addr"` lines.
        let header = if sections::has_header(text, "[peers]") {
            "[peers]"
        } else {
            ""
        };
        for entry in sections::entries(text, header) {
            let (id, addr) = entry.map_err(|line| {
                CommonError::InvalidConfig(format!("peer line '{line}' is not id = \"addr\""))
            })?;
            map.add_parsed(id, addr)?;
        }
        Ok(map)
    }

    /// Renders the map in the inline flag form (round-trips `parse_flag`).
    pub fn to_flag(&self) -> String {
        self.replicas
            .iter()
            .map(|(id, addr)| format!("{id}={addr}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    fn add_parsed(&mut self, id: &str, addr: &str) -> Result<()> {
        let id: u32 = id
            .parse()
            .map_err(|_| CommonError::InvalidConfig(format!("peer id '{id}' is not an integer")))?;
        let addr: SocketAddr = addr.parse().map_err(|_| {
            CommonError::InvalidConfig(format!("peer address '{addr}' is not host:port"))
        })?;
        if self.replicas.insert(id, addr).is_some() {
            return Err(CommonError::InvalidConfig(format!(
                "replica {id} appears twice in the peer map"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn flag_round_trip() {
        let spec = "0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003";
        let map = PeerMap::parse_flag(spec).unwrap();
        assert_eq!(map.len(), 4);
        assert_eq!(map.get(ReplicaId(2)), Some(addr(7002)));
        assert_eq!(map.to_flag(), spec);
        assert!(map.validate_dense().is_ok());
    }

    #[test]
    fn toml_with_section_comments_and_other_tables() {
        let text = r#"
# cluster layout
[node]
protocol = "pbft"

[peers]
0 = "127.0.0.1:7000"  # primary
1 = "127.0.0.1:7001"
"#;
        let map = PeerMap::parse_toml(text).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(ReplicaId(0)), Some(addr(7000)));
    }

    #[test]
    fn toml_ignores_top_level_keys_before_the_peers_section() {
        // A peer map embedded in a larger node config: conventional
        // top-level keys precede any section header and must be skipped.
        let text = "protocol = \"pbft\"\nseed = 42\n\n[peers]\n0 = \"127.0.0.1:7000\"\n";
        let map = PeerMap::parse_toml(text).unwrap();
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(ReplicaId(0)), Some(addr(7000)));
    }

    #[test]
    fn bare_lines_without_section_accepted() {
        let map = PeerMap::parse_toml("0 = \"127.0.0.1:9000\"\n1 = \"127.0.0.1:9001\"\n").unwrap();
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn malformed_entries_rejected() {
        assert!(PeerMap::parse_flag("0:127.0.0.1:7000").is_err());
        assert!(PeerMap::parse_flag("x=127.0.0.1:7000").is_err());
        assert!(PeerMap::parse_flag("0=nonsense").is_err());
        assert!(PeerMap::parse_flag("0=127.0.0.1:1,0=127.0.0.1:2").is_err());
        assert!(PeerMap::parse_toml("[peers]\n0 127.0.0.1:7000").is_err());
    }

    #[test]
    fn dense_validation_catches_gaps() {
        let mut map = PeerMap::new();
        map.insert(ReplicaId(0), addr(1));
        map.insert(ReplicaId(2), addr(2));
        assert!(map.validate_dense().is_err());
        map.insert(ReplicaId(1), addr(3));
        assert!(map.validate_dense().is_ok());
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut map = PeerMap::new();
        map.insert(ReplicaId(3), addr(3));
        map.insert(ReplicaId(0), addr(0));
        map.insert(ReplicaId(1), addr(1));
        let ids: Vec<u32> = map.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 3]);
    }
}
