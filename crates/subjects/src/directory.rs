//! User/group directory: the server-side registry of identities and the
//! group-membership relation (paper §3: "a group is a set of users defined
//! at the server. Groups do not need to be disjoint and can be nested").

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Error raised by directory mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryError {
    /// The named user/group already exists with a different kind.
    KindConflict(String),
    /// Membership edge would create a cycle in the group graph.
    MembershipCycle {
        /// The member being added.
        member: String,
        /// The group it was being added to.
        group: String,
    },
    /// The named principal does not exist.
    Unknown(String),
    /// Membership target is a user, not a group.
    NotAGroup(String),
}

impl fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectoryError::KindConflict(n) => {
                write!(f, "{n:?} already exists as a different kind of principal")
            }
            DirectoryError::MembershipCycle { member, group } => {
                write!(f, "adding {member:?} to {group:?} would create a membership cycle")
            }
            DirectoryError::Unknown(n) => write!(f, "unknown principal {n:?}"),
            DirectoryError::NotAGroup(n) => write!(f, "{n:?} is a user, not a group"),
        }
    }
}

impl std::error::Error for DirectoryError {}

/// Kind of a registered principal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrincipalKind {
    /// An individual user identity.
    User,
    /// A (possibly nested) group.
    Group,
}

/// The directory: principals plus the membership DAG.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    kinds: BTreeMap<String, PrincipalKind>,
    /// member → direct parent groups.
    parents: BTreeMap<String, BTreeSet<String>>,
    /// [`Directory::digest`], once computed; every mutator clears it.
    digest: OnceLock<u64>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a user. Idempotent; errors if the name is a group.
    pub fn add_user(&mut self, name: &str) -> Result<(), DirectoryError> {
        self.add_principal(name, PrincipalKind::User)
    }

    /// Registers a group. Idempotent; errors if the name is a user.
    pub fn add_group(&mut self, name: &str) -> Result<(), DirectoryError> {
        self.add_principal(name, PrincipalKind::Group)
    }

    fn add_principal(&mut self, name: &str, kind: PrincipalKind) -> Result<(), DirectoryError> {
        match self.kinds.get(name) {
            Some(k) if *k == kind => Ok(()),
            Some(_) => Err(DirectoryError::KindConflict(name.to_string())),
            None => {
                self.kinds.insert(name.to_string(), kind);
                self.digest = OnceLock::new();
                Ok(())
            }
        }
    }

    /// Looks up a principal's kind.
    pub fn kind(&self, name: &str) -> Option<PrincipalKind> {
        self.kinds.get(name).copied()
    }

    /// `true` if `name` is a registered group.
    pub fn is_group(&self, name: &str) -> bool {
        self.kind(name) == Some(PrincipalKind::Group)
    }

    /// Adds `member` (user or group) to `group`.
    ///
    /// Both principals must exist; group-in-group nesting is allowed but
    /// cycles are rejected.
    pub fn add_member(&mut self, member: &str, group: &str) -> Result<(), DirectoryError> {
        if !self.kinds.contains_key(member) {
            return Err(DirectoryError::Unknown(member.to_string()));
        }
        match self.kinds.get(group) {
            None => return Err(DirectoryError::Unknown(group.to_string())),
            Some(PrincipalKind::User) => return Err(DirectoryError::NotAGroup(group.to_string())),
            Some(PrincipalKind::Group) => {}
        }
        // Cycle check: a group cannot contain itself, directly or
        // transitively.
        if member == group || self.is_member(group, member) {
            return Err(DirectoryError::MembershipCycle {
                member: member.to_string(),
                group: group.to_string(),
            });
        }
        self.parents.entry(member.to_string()).or_default().insert(group.to_string());
        self.digest = OnceLock::new();
        Ok(())
    }

    /// Transitive membership test: is `member` in `group`?
    /// Not reflexive (`is_member("Alice", "Alice")` is `false`); use
    /// [`Directory::dominates`] for the hierarchy order.
    pub fn is_member(&self, member: &str, group: &str) -> bool {
        let mut stack: Vec<&str> = vec![member];
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some(m) = stack.pop() {
            if let Some(ps) = self.parents.get(m) {
                for p in ps {
                    if p == group {
                        return true;
                    }
                    if seen.insert(p) {
                        stack.push(p);
                    }
                }
            }
        }
        false
    }

    /// The hierarchy order on user/group identifiers: `a` ≤ `b` iff
    /// `a == b` or `a` is transitively a member of `b`.
    pub fn dominates(&self, a: &str, b: &str) -> bool {
        a == b || self.is_member(a, b)
    }

    /// All groups `member` transitively belongs to.
    pub fn groups_of(&self, member: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut stack: Vec<&str> = vec![member];
        while let Some(m) = stack.pop() {
            if let Some(ps) = self.parents.get(m) {
                for p in ps {
                    if out.insert(p.clone()) {
                        stack.push(p);
                    }
                }
            }
        }
        out
    }

    /// A digest of the domination relation: every principal, its kind
    /// and the groups it transitively belongs to. Two directories with
    /// the same relation have the same digest, however they were built.
    /// Computed on first use and kept until the next successful
    /// [`Directory::add_user`], [`Directory::add_group`] or
    /// [`Directory::add_member`], so a reader that needs it per request
    /// (the label-decision fingerprint) does not walk the directory.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut h = DefaultHasher::new();
            for (name, kind) in self.principals() {
                name.hash(&mut h);
                (kind == PrincipalKind::Group).hash(&mut h);
                for g in self.groups_of(name) {
                    g.hash(&mut h);
                }
                0xfeu8.hash(&mut h); // per-principal separator
            }
            h.finish()
        })
    }

    /// All registered principal names (diagnostics).
    pub fn principals(&self) -> impl Iterator<Item = (&str, PrincipalKind)> {
        self.kinds.iter().map(|(n, k)| (n.as_str(), *k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> Directory {
        let mut d = Directory::new();
        for u in ["Tom", "Alice", "Sam"] {
            d.add_user(u).unwrap();
        }
        for g in ["Public", "Foreign", "Admin", "Staff"] {
            d.add_group(g).unwrap();
        }
        d.add_member("Tom", "Foreign").unwrap();
        d.add_member("Alice", "Admin").unwrap();
        d.add_member("Admin", "Staff").unwrap();
        for u in ["Tom", "Alice", "Sam"] {
            d.add_member(u, "Public").unwrap();
        }
        d
    }

    #[test]
    fn direct_and_transitive_membership() {
        let d = dir();
        assert!(d.is_member("Tom", "Foreign"));
        assert!(d.is_member("Alice", "Admin"));
        assert!(d.is_member("Alice", "Staff")); // via Admin
        assert!(!d.is_member("Tom", "Admin"));
        assert!(!d.is_member("Sam", "Foreign"));
    }

    #[test]
    fn dominates_is_reflexive() {
        let d = dir();
        assert!(d.dominates("Tom", "Tom"));
        assert!(d.dominates("Public", "Public"));
        assert!(d.dominates("Tom", "Foreign"));
        assert!(!d.dominates("Foreign", "Tom"));
    }

    #[test]
    fn groups_of_collects_all() {
        let d = dir();
        let g = d.groups_of("Alice");
        assert!(g.contains("Admin"));
        assert!(g.contains("Staff"));
        assert!(g.contains("Public"));
        assert!(!g.contains("Foreign"));
    }

    #[test]
    fn overlapping_groups_allowed() {
        let d = dir();
        // Tom is in both Foreign and Public — groups need not be disjoint.
        assert!(d.is_member("Tom", "Foreign"));
        assert!(d.is_member("Tom", "Public"));
    }

    #[test]
    fn cycles_rejected() {
        let mut d = Directory::new();
        d.add_group("A").unwrap();
        d.add_group("B").unwrap();
        d.add_group("C").unwrap();
        d.add_member("A", "B").unwrap();
        d.add_member("B", "C").unwrap();
        let e = d.add_member("C", "A").unwrap_err();
        assert!(matches!(e, DirectoryError::MembershipCycle { .. }));
        // self-membership is a 1-cycle
        assert!(d.add_member("A", "A").is_err());
    }

    #[test]
    fn kind_conflicts_and_unknowns() {
        let mut d = Directory::new();
        d.add_user("X").unwrap();
        assert!(d.add_group("X").is_err());
        assert!(d.add_user("X").is_ok()); // idempotent
        assert!(d.add_member("X", "Nope").is_err());
        assert!(d.add_member("Nope", "X").is_err());
        d.add_user("Y").unwrap();
        assert!(matches!(d.add_member("Y", "X"), Err(DirectoryError::NotAGroup(_))));
    }

    #[test]
    fn every_mutation_changes_the_digest_and_equal_relations_agree() {
        let mut d = Directory::new();
        let mut seen = vec![d.digest()];
        let mut changed = |d: &Directory| {
            let now = d.digest();
            assert!(!seen.contains(&now), "a mutation left the digest at {now:#x}");
            seen.push(now);
        };
        d.add_user("Tom").unwrap();
        changed(&d);
        d.add_group("Staff").unwrap();
        changed(&d);
        d.add_group("All").unwrap();
        changed(&d);
        d.add_member("Staff", "All").unwrap();
        changed(&d);
        d.add_member("Tom", "Staff").unwrap();
        changed(&d);
        // An idempotent or refused call changes nothing.
        let before = d.digest();
        d.add_user("Tom").unwrap();
        assert!(d.add_member("All", "Tom").is_err());
        assert_eq!(d.digest(), before);

        // The same relation built in another order.
        let mut e = Directory::new();
        e.add_group("All").unwrap();
        e.add_group("Staff").unwrap();
        e.add_user("Tom").unwrap();
        e.add_member("Tom", "Staff").unwrap();
        e.add_member("Staff", "All").unwrap();
        assert_eq!(e.digest(), d.digest());
        // Tom in All directly as well adds no domination pair.
        e.add_member("Tom", "All").unwrap();
        assert_eq!(e.digest(), d.digest());
        assert_eq!(d.clone().digest(), d.digest());
    }

    #[test]
    fn membership_in_user_never_holds() {
        let d = dir();
        assert!(!d.is_member("Foreign", "Tom"));
        assert!(!d.dominates("Foreign", "Tom"));
    }
}
