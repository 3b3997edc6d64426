//! System entities and their attributes (Table II).
//!
//! | Entity             | Attributes                                   |
//! |--------------------|----------------------------------------------|
//! | File               | Name, Path, User, Group                      |
//! | Process            | PID, Executable Name, User, Group, CMD       |
//! | Network Connection | SRC/DST IP, SRC/DST Port, Protocol           |
//!
//! Entity identity follows Section III-A of the paper: a process is uniquely
//! identified by its executable name and PID, a file by its absolute path,
//! and a network connection by the 5-tuple
//! ⟨srcip, srcport, dstip, dstport, protocol⟩. "Failing to distinguish
//! different entities will cause problems in relating events to entities."

use raptor_common::ids::EntityId;

use crate::syscall::Protocol;

/// The three entity kinds ThreatRaptor monitors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EntityKind {
    File,
    Process,
    NetConn,
}

impl EntityKind {
    /// TBQL entity-type keyword (`file` / `proc` / `ip`).
    pub fn tbql_keyword(self) -> &'static str {
        match self {
            EntityKind::File => "file",
            EntityKind::Process => "proc",
            EntityKind::NetConn => "ip",
        }
    }

    /// The default attribute used by TBQL syntactic sugar: `name` for files,
    /// `exename` for processes, `dstip` for network connections.
    pub fn default_attribute(self) -> &'static str {
        match self {
            EntityKind::File => "name",
            EntityKind::Process => "exename",
            EntityKind::NetConn => "dstip",
        }
    }
}

/// File attributes. `name` is the absolute path (the unique identifier);
/// `path` is the parent directory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FileAttrs {
    pub name: String,
    pub path: String,
    pub user: String,
    pub group: String,
}

/// Process attributes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProcessAttrs {
    pub pid: u32,
    pub exename: String,
    pub user: String,
    pub group: String,
    pub cmd: String,
}

/// Network connection attributes (the 5-tuple).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetConnAttrs {
    pub src_ip: String,
    pub src_port: u16,
    pub dst_ip: String,
    pub dst_port: u16,
    pub protocol: Protocol,
}

/// Kind-specific attributes of an entity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EntityAttrs {
    File(FileAttrs),
    Process(ProcessAttrs),
    NetConn(NetConnAttrs),
}

impl EntityAttrs {
    pub fn kind(&self) -> EntityKind {
        match self {
            EntityAttrs::File(_) => EntityKind::File,
            EntityAttrs::Process(_) => EntityKind::Process,
            EntityAttrs::NetConn(_) => EntityKind::NetConn,
        }
    }

    /// The paper's unique identifier of this entity on `host`.
    pub fn identity(&self, host: u16) -> Identity<'_> {
        match self {
            EntityAttrs::File(f) => Identity::File { host, name: &f.name },
            EntityAttrs::Process(p) => Identity::Process { host, exename: &p.exename, pid: p.pid },
            EntityAttrs::NetConn(n) => Identity::NetConn {
                host,
                src_ip: &n.src_ip,
                src_port: n.src_port,
                dst_ip: &n.dst_ip,
                dst_port: n.dst_port,
                protocol: n.protocol,
            },
        }
    }

    /// The value of the kind's default attribute (used by result rendering).
    pub fn default_attribute_value(&self) -> String {
        match self {
            EntityAttrs::File(f) => f.name.clone(),
            EntityAttrs::Process(p) => p.exename.clone(),
            EntityAttrs::NetConn(n) => n.dst_ip.clone(),
        }
    }

    /// Generic attribute access by name; `None` for unknown attributes.
    /// Numeric attributes are rendered in decimal.
    pub fn get(&self, attr: &str) -> Option<String> {
        match self {
            EntityAttrs::File(f) => match attr {
                "name" => Some(f.name.clone()),
                "path" => Some(f.path.clone()),
                "user" => Some(f.user.clone()),
                "group" => Some(f.group.clone()),
                _ => None,
            },
            EntityAttrs::Process(p) => match attr {
                "pid" => Some(p.pid.to_string()),
                "exename" => Some(p.exename.clone()),
                "user" => Some(p.user.clone()),
                "group" => Some(p.group.clone()),
                "cmd" => Some(p.cmd.clone()),
                _ => None,
            },
            EntityAttrs::NetConn(n) => match attr {
                "srcip" => Some(n.src_ip.clone()),
                "srcport" => Some(n.src_port.to_string()),
                "dstip" => Some(n.dst_ip.clone()),
                "dstport" => Some(n.dst_port.to_string()),
                "protocol" => Some(n.protocol.name().to_string()),
                _ => None,
            },
        }
    }
}

/// What tells two entities apart (Section III-A), borrowed from wherever
/// the parts live: a parsed entity's attributes or a raw record. The parser
/// probes with it before it builds any attribute.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Identity<'a> {
    /// A file: its absolute path.
    File { host: u16, name: &'a str },
    /// A process: its executable name and PID.
    Process { host: u16, exename: &'a str, pid: u32 },
    /// A network connection: its 5-tuple.
    NetConn {
        host: u16,
        src_ip: &'a str,
        src_port: u16,
        dst_ip: &'a str,
        dst_port: u16,
        protocol: Protocol,
    },
}

impl Identity<'_> {
    /// The monitored host the entity lives on: the same path on two hosts
    /// is two files.
    pub fn host(&self) -> u16 {
        match *self {
            Identity::File { host, .. }
            | Identity::Process { host, .. }
            | Identity::NetConn { host, .. } => host,
        }
    }
}

/// A parsed system entity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Entity {
    pub id: EntityId,
    /// Monitored host on which the entity was observed.
    pub host: u16,
    pub attrs: EntityAttrs,
}

impl Entity {
    pub fn kind(&self) -> EntityKind {
        self.attrs.kind()
    }

    /// What tells this entity apart from every other (Section III-A).
    pub fn identity(&self) -> Identity<'_> {
        self.attrs.identity(self.host)
    }
}

/// Splits an absolute path into its parent directory (for the `path`
/// attribute of Table II). Returns `/` for top-level files.
pub fn parent_dir(abs_path: &str) -> String {
    match abs_path.rfind('/') {
        Some(0) => "/".to_string(),
        Some(i) => abs_path[..i].to_string(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(name: &str) -> EntityAttrs {
        EntityAttrs::File(FileAttrs {
            name: name.into(),
            path: parent_dir(name),
            user: "root".into(),
            group: "root".into(),
        })
    }

    #[test]
    fn identity_keys_distinguish_entities() {
        let tar1 = EntityAttrs::Process(ProcessAttrs {
            pid: 100,
            exename: "/bin/tar".into(),
            user: "root".into(),
            group: "root".into(),
            cmd: "tar cf x".into(),
        });
        let tar2 = EntityAttrs::Process(ProcessAttrs {
            pid: 101,
            exename: "/bin/tar".into(),
            user: "root".into(),
            group: "root".into(),
            cmd: "tar cf y".into(),
        });
        // Same exe, different PID ⇒ different process entities.
        assert_ne!(tar1.identity(0), tar2.identity(0));
        // Same process on different hosts ⇒ different entities.
        assert_ne!(tar1.identity(0), tar1.identity(1));
        assert_eq!(tar1.identity(1).host(), 1);
        // The command line is an attribute, not part of the identity.
        let EntityAttrs::Process(mut p) = tar1.clone() else { unreachable!() };
        p.cmd = "tar xf z".into();
        assert_eq!(EntityAttrs::Process(p).identity(0), tar1.identity(0));
        // Files keyed by absolute path only.
        assert_eq!(file("/etc/passwd").identity(0), file("/etc/passwd").identity(0));
        assert_ne!(file("/etc/passwd").identity(0), file("/etc/shadow").identity(0));
        let mut other_owner = file("/etc/passwd");
        if let EntityAttrs::File(f) = &mut other_owner {
            f.user = "alice".into();
        }
        assert_eq!(other_owner.identity(0), file("/etc/passwd").identity(0));
    }

    #[test]
    fn netconn_identity_is_5tuple() {
        let mk = |dst_port: u16| {
            EntityAttrs::NetConn(NetConnAttrs {
                src_ip: "10.0.0.5".into(),
                src_port: 50000,
                dst_ip: "192.168.29.128".into(),
                dst_port,
                protocol: Protocol::Tcp,
            })
        };
        assert_ne!(mk(80).identity(0), mk(443).identity(0));
        assert_eq!(mk(80).identity(0), mk(80).identity(0));
        let EntityAttrs::NetConn(mut udp) = mk(80) else { unreachable!() };
        udp.protocol = Protocol::Udp;
        assert_ne!(EntityAttrs::NetConn(udp).identity(0), mk(80).identity(0));
    }

    #[test]
    fn default_attributes_match_paper() {
        assert_eq!(EntityKind::File.default_attribute(), "name");
        assert_eq!(EntityKind::Process.default_attribute(), "exename");
        assert_eq!(EntityKind::NetConn.default_attribute(), "dstip");
        assert_eq!(EntityKind::Process.tbql_keyword(), "proc");
        assert_eq!(EntityKind::NetConn.tbql_keyword(), "ip");
    }

    #[test]
    fn attribute_access() {
        let f = file("/tmp/upload.tar");
        assert_eq!(f.get("name").as_deref(), Some("/tmp/upload.tar"));
        assert_eq!(f.get("path").as_deref(), Some("/tmp"));
        assert_eq!(f.get("exename"), None);
        assert_eq!(f.default_attribute_value(), "/tmp/upload.tar");
    }

    #[test]
    fn parent_dir_cases() {
        assert_eq!(parent_dir("/etc/passwd"), "/etc");
        assert_eq!(parent_dir("/vmlinuz"), "/");
        assert_eq!(parent_dir("relative"), "");
        assert_eq!(parent_dir("/a/b/c.txt"), "/a/b");
    }
}
