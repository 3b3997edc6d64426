//! IOC recognition.
//!
//! Hand-written scanners (extending the coverage of the open-source
//! ioc-parser the paper started from — e.g. distinguishing Linux and Windows
//! file paths) recognize the IOC types below, with byte-exact spans so the
//! protection step can splice them out. Common defangings are normalized:
//! `hxxp` → `http`, `[.]`/`(.)`/`[dot]` → `.`.
//!
//! The scan tests borrowed slices of the text: refanging borrows unless the
//! candidate is defanged, and every classifier compares in place (ASCII
//! case-insensitively where the type is). An accepted IOC allocates once,
//! for its normalized text; text without IOCs allocates nothing.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

/// IOC types recognized by the scanners.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum IocType {
    /// Absolute Unix path (`/etc/passwd`).
    FilePath,
    /// Windows path (`C:\Users\x\evil.exe` or UNC).
    WinFilePath,
    /// Bare file name with a known extension (`MsgApp-instr.apk`).
    FileName,
    /// IPv4, optionally with a CIDR suffix.
    Ip,
    Domain,
    Url,
    Email,
    /// MD5 / SHA-1 / SHA-256 hex digest.
    Hash,
    Cve,
    /// Windows registry key.
    Registry,
}

impl IocType {
    pub fn name(self) -> &'static str {
        match self {
            IocType::FilePath => "filepath",
            IocType::WinFilePath => "winfilepath",
            IocType::FileName => "filename",
            IocType::Ip => "ip",
            IocType::Domain => "domain",
            IocType::Url => "url",
            IocType::Email => "email",
            IocType::Hash => "hash",
            IocType::Cve => "cve",
            IocType::Registry => "registry",
        }
    }

    /// Is this IOC type file-like (usable as a file/process entity)?
    pub fn is_file_like(self) -> bool {
        matches!(self, IocType::FilePath | IocType::WinFilePath | IocType::FileName)
    }

    /// Is this IOC type network-like (usable as a network entity)?
    pub fn is_network_like(self) -> bool {
        matches!(self, IocType::Ip | IocType::Domain | IocType::Url)
    }
}

/// One recognized IOC.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IocMatch {
    /// Byte span in the source text.
    pub start: usize,
    pub end: usize,
    /// Normalized (refanged) text.
    pub text: String,
    pub ioc_type: IocType,
}

const FILE_EXTENSIONS: &[&str] = &[
    "7z", "apk", "bat", "bin", "bz2", "cfg", "conf", "dat", "deb", "dll", "doc", "docx", "elf",
    "exe", "gz", "htm", "html", "img", "iso", "jar", "jpg", "js", "json", "log", "msi", "o", "pdf",
    "php", "png", "ps1", "py", "rar", "rpm", "sh", "so", "sys", "tar", "tgz", "tmp", "txt", "vbs",
    "xls", "xlsx", "xml", "yaml", "yml", "zip",
];

const TLDS: &[&str] = &[
    "biz", "cc", "club", "cn", "co", "com", "de", "edu", "fr", "gov", "info", "io", "ir", "jp",
    "kr", "me", "mil", "net", "nl", "onion", "online", "org", "ru", "site", "su", "top", "tv",
    "uk", "us", "ws", "xyz",
];

fn is_ioc_char(c: u8) -> bool {
    c.is_ascii_alphanumeric()
        || matches!(
            c,
            b'.' | b'_'
                | b'-'
                | b'/'
                | b'\\'
                | b':'
                | b'@'
                | b'%'
                | b'~'
                | b'+'
                | b'='
                | b'&'
                | b'?'
                | b'#'
                | b'['
                | b']'
                | b'('
                | b')'
        )
}

/// Does `s` start with the ASCII `prefix`, ignoring ASCII case?
fn starts_with_ci(s: &str, prefix: &str) -> bool {
    s.len() >= prefix.len() && s.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
}

/// The defanged spellings of `.`.
const DEFANGED_DOTS: [&str; 4] = ["[.]", "(.)", "[dot]", "(dot)"];

/// Refangs a candidate: `[.]`, `(.)`, `[dot]`, `(dot)` → `.`; `hxxp` →
/// `http`. Borrows the candidate unless one of those forms occurs in it.
fn refang(s: &str) -> Cow<'_, str> {
    let hxxp = starts_with_ci(s, "hxxp");
    // Every defanged dot opens with a bracket: test for one before the
    // substring searches.
    let defanged =
        s.bytes().any(|b| b == b'[' || b == b'(') && DEFANGED_DOTS.iter().any(|d| s.contains(d));
    if !hxxp && !defanged {
        return Cow::Borrowed(s);
    }
    let mut out = s.to_string();
    for d in DEFANGED_DOTS {
        if out.contains(d) {
            out = out.replace(d, ".");
        }
    }
    // A replacement puts a `.` where it was, so it never makes an `hxxp`
    // prefix that the candidate lacked.
    if hxxp {
        let scheme = if out.starts_with('H') { "HTTP" } else { "http" };
        out.replace_range(..4, scheme);
    }
    Cow::Owned(out)
}

fn trim_trailing(s: &str) -> &str {
    s.trim_end_matches(['.', ',', ';', ':', ')', ']', '?', '!', '\'', '"'])
}

/// Scans `text` for IOCs, returning non-overlapping matches in text order.
pub fn scan_iocs(text: &str) -> Vec<IocMatch> {
    let bytes = text.as_bytes();
    let mut out: Vec<IocMatch> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        // Candidate spans start at an IOC char preceded by a boundary.
        if !is_ioc_char(bytes[i]) || (i > 0 && is_ioc_char(bytes[i - 1])) {
            i += 1;
            continue;
        }
        // Maximal candidate run.
        let mut j = i;
        while j < bytes.len() && is_ioc_char(bytes[j]) {
            j += 1;
        }
        let trimmed = trim_trailing(&text[i..j]);
        if !trimmed.is_empty() {
            let refanged = refang(trimmed);
            if let Some(ioc_type) = classify(&refanged) {
                let text = normalize(ioc_type, refanged);
                out.push(IocMatch { start: i, end: i + trimmed.len(), text, ioc_type });
            }
        }
        i = j;
    }
    out
}

/// Classifies one boundary-trimmed, refanged candidate.
fn classify(s: &str) -> Option<IocType> {
    // Every type below needs one of these bytes; a plain word has none.
    let marked =
        s.bytes().any(|b| b.is_ascii_digit() || matches!(b, b'.' | b'/' | b'\\' | b'@' | b':'));
    if s.len() < 2 || !marked {
        return None;
    }
    let ty = if is_url(s) {
        IocType::Url
    } else if is_email(s) {
        IocType::Email
    } else if is_registry(s) {
        IocType::Registry
    } else if is_cve(s) {
        IocType::Cve
    } else if is_ip(s) {
        IocType::Ip
    } else if is_hash(s) {
        IocType::Hash
    } else if is_win_path(s) {
        IocType::WinFilePath
    } else if is_unix_path(s) {
        IocType::FilePath
    } else {
        return dotted_name_type(s);
    };
    Some(ty)
}

/// The normalized text of an accepted IOC: CVE ids upper-cased, hashes
/// and domains lower-cased, everything else as written (refanged). The one
/// allocation an IOC costs, unless refanging already made the string.
fn normalize(ty: IocType, refanged: Cow<'_, str>) -> String {
    let mut text = refanged.into_owned();
    match ty {
        IocType::Cve => text.make_ascii_uppercase(),
        IocType::Hash | IocType::Domain => text.make_ascii_lowercase(),
        _ => {}
    }
    text
}

fn is_url(s: &str) -> bool {
    ["http://", "https://", "ftp://"]
        .iter()
        .any(|scheme| starts_with_ci(s, scheme) && s.len() > scheme.len() + 2)
}

fn is_email(s: &str) -> bool {
    let Some((local, domain)) = s.split_once('@') else {
        return false;
    };
    if local.is_empty() || domain.is_empty() {
        return false;
    }
    let local_ok = local
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'%' | b'+' | b'-'));
    local_ok
        && domain.contains('.')
        && domain
            .split('.')
            .all(|l| !l.is_empty() && l.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-'))
}

fn is_registry(s: &str) -> bool {
    ["HKEY_", "HKLM\\", "HKCU\\", "HKCR\\", "HKU\\"].iter().any(|p| starts_with_ci(s, p))
        && s.contains('\\')
}

fn is_cve(s: &str) -> bool {
    if !starts_with_ci(s, "CVE-") {
        return false;
    }
    let Some((year, num)) = s[4..].split_once('-') else {
        return false;
    };
    year.len() == 4
        && year.bytes().all(|b| b.is_ascii_digit())
        && (1..=7).contains(&num.len())
        && num.bytes().all(|b| b.is_ascii_digit())
}

/// `1..=max_digits` ASCII digits whose value is at most `max`.
fn is_decimal(s: &str, max_digits: usize, max: u32) -> bool {
    (1..=max_digits).contains(&s.len())
        && s.bytes().all(|b| b.is_ascii_digit())
        && s.bytes().fold(0, |n, b| n * 10 + u32::from(b - b'0')) <= max
}

fn is_ip(s: &str) -> bool {
    let (addr, cidr) = match s.split_once('/') {
        Some((a, c)) => (a, Some(c)),
        None => (s, None),
    };
    addr.split('.').count() == 4
        && addr.split('.').all(|octet| is_decimal(octet, 3, 255))
        && cidr.is_none_or(|bits| is_decimal(bits, 2, 32))
}

fn is_hash(s: &str) -> bool {
    let is_hex = s.bytes().all(|b| b.is_ascii_hexdigit());
    let has_alpha = s.bytes().any(|b| b.is_ascii_alphabetic());
    let has_digit = s.bytes().any(|b| b.is_ascii_digit());
    is_hex && has_alpha && has_digit && matches!(s.len(), 32 | 40 | 64)
}

fn is_win_path(s: &str) -> bool {
    let bytes = s.as_bytes();
    let drive =
        bytes.len() > 3 && bytes[0].is_ascii_alphabetic() && bytes[1] == b':' && bytes[2] == b'\\';
    let unc = s.starts_with("\\\\") && s.len() > 4;
    (drive || unc) && !s.ends_with('\\')
}

fn is_unix_path(s: &str) -> bool {
    if !s.starts_with('/') || s.len() < 3 || s.contains("//") {
        return false;
    }
    let ok = s
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'/' | b'.' | b'_' | b'-' | b'+' | b'~'));
    let has_alpha = s.bytes().any(|b| b.is_ascii_alphabetic());
    ok && has_alpha && !s.ends_with('/')
}

/// `name.ext` → FileName if `ext` is a known file extension;
/// `host.tld` → Domain if the last label is a known TLD.
fn dotted_name_type(s: &str) -> Option<IocType> {
    if !s.contains('.') || s.contains('/') || s.contains('\\') || s.contains(':') {
        return None;
    }
    if s.split('.').any(str::is_empty) {
        return None;
    }
    let labels = s.split('.').count();
    let (first, last) = (s.split('.').next()?, s.rsplit('.').next()?);
    let listed = |list: &[&str], label: &str| list.iter().any(|w| w.eq_ignore_ascii_case(label));
    // Every byte outside the dots belongs to a label.
    let body_ok = |allow_underscore: bool| {
        s.bytes().all(|b| {
            b == b'.' || b.is_ascii_alphanumeric() || b == b'-' || (allow_underscore && b == b'_')
        })
    };
    if listed(FILE_EXTENSIONS, last) && body_ok(true) {
        return Some(IocType::FileName);
    }
    // Reverse-DNS package names (Android process executables, e.g.
    // `com.android.defcontainer`) — the ClearScope cases need these.
    if listed(&["com", "org", "net", "io"], first)
        && labels >= 3
        && !listed(TLDS, last)
        && body_ok(true)
    {
        return Some(IocType::FileName);
    }
    // Domains need an alphabetic character somewhere before the TLD.
    if listed(TLDS, last)
        && labels >= 2
        && body_ok(false)
        && s.bytes().any(|b| b.is_ascii_alphabetic())
    {
        return Some(IocType::Domain);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str) -> Vec<(String, IocType)> {
        scan_iocs(text).into_iter().map(|m| (m.text, m.ioc_type)).collect()
    }

    #[test]
    fn figure2_text_iocs() {
        // The exact IOC inventory of the paper's Figure 2 demo text.
        let text = "the attacker used /bin/tar to read user credentials from /etc/passwd. \
                    It wrote the gathered information to a file /tmp/upload.tar. \
                    /bin/bzip2 read from /tmp/upload.tar and wrote to /tmp/upload.tar.bz2. \
                    /usr/bin/gpg then wrote the sensitive information to /tmp/upload. \
                    using /usr/bin/curl to connect to 192.168.29.128.";
        let found = scan(text);
        let texts: Vec<&str> = found.iter().map(|(t, _)| t.as_str()).collect();
        for expected in [
            "/bin/tar",
            "/etc/passwd",
            "/tmp/upload.tar",
            "/bin/bzip2",
            "/tmp/upload.tar.bz2",
            "/usr/bin/gpg",
            "/tmp/upload",
            "/usr/bin/curl",
            "192.168.29.128",
        ] {
            assert!(texts.contains(&expected), "missing {expected}: {texts:?}");
        }
        // The IP classifies as Ip, the paths as FilePath.
        assert!(found.iter().any(|(t, ty)| t == "192.168.29.128" && *ty == IocType::Ip));
        assert!(found.iter().all(|(t, ty)| t != "/etc/passwd" || *ty == IocType::FilePath));
    }

    #[test]
    fn ip_with_cidr_and_bounds() {
        assert_eq!(
            scan("botnet at 192.168.29.128/32 detected"),
            vec![("192.168.29.128/32".to_string(), IocType::Ip)]
        );
        assert!(scan("version 1.2.3.4.5 is fine").is_empty(), "five octets is not an IP");
        assert!(scan("300.1.2.3 invalid").is_empty());
        assert!(scan("1.2.3.4/33 invalid").is_empty());
    }

    #[test]
    fn ip_octets_and_prefixes_are_plain_digits() {
        // `str::parse` reads a leading `+`, which once made these IPs.
        assert!(scan("seen +1.+2.+3.+4 here").is_empty());
        assert!(scan("route 10.0.0.1/+8 here").is_empty());
        assert_eq!(scan("route 10.0.0.1/8 here"), vec![("10.0.0.1/8".to_string(), IocType::Ip)]);
    }

    #[test]
    fn mixed_case_forms_classify_in_place() {
        assert_eq!(
            scan(r"HXXP://evil[.]com/x cve-2014-6271 Evil-C2.COM Upload.TAR hkcu\Software\x"),
            vec![
                ("HTTP://evil.com/x".to_string(), IocType::Url),
                ("CVE-2014-6271".to_string(), IocType::Cve),
                ("evil-c2.com".to_string(), IocType::Domain),
                ("Upload.TAR".to_string(), IocType::FileName),
                (r"hkcu\Software\x".to_string(), IocType::Registry),
            ]
        );
    }

    #[test]
    fn refang_borrows_unless_defanged() {
        assert!(matches!(refang("evil.com"), Cow::Borrowed("evil.com")));
        assert!(matches!(refang("(it"), Cow::Borrowed("(it")));
        assert_eq!(refang("hxxps://a(dot)b[.]c"), "https://a.b.c");
        assert_eq!(refang("Hxxp://x"), "HTTP://x");
    }

    #[test]
    fn windows_paths_distinguished_from_linux() {
        let found = scan(r"It dropped C:\Users\victim\evil.exe and /tmp/evil.sh on hosts.");
        assert!(found.contains(&(r"C:\Users\victim\evil.exe".to_string(), IocType::WinFilePath)));
        assert!(found.contains(&("/tmp/evil.sh".to_string(), IocType::FilePath)));
    }

    #[test]
    fn filename_vs_domain() {
        let found = scan("The dropper MsgApp-instr.apk beacons to evil-c2.com today.");
        assert!(found.contains(&("MsgApp-instr.apk".to_string(), IocType::FileName)));
        assert!(found.contains(&("evil-c2.com".to_string(), IocType::Domain)));
        // "upload.tar" is a filename, never a domain ("tar" is an extension).
        assert_eq!(
            scan("see upload.tar here"),
            vec![("upload.tar".to_string(), IocType::FileName)]
        );
    }

    #[test]
    fn urls_and_emails() {
        let found =
            scan("Phishing from admin@evil-c2.com links http://evil-c2.com/payload.bin today");
        assert!(found.contains(&("admin@evil-c2.com".to_string(), IocType::Email)));
        assert!(found.contains(&("http://evil-c2.com/payload.bin".to_string(), IocType::Url)));
    }

    #[test]
    fn defanged_forms_normalized() {
        let found = scan("C2 at hxxp://evil[.]com/x and 192[.]168[.]29[.]128 observed");
        assert!(found.contains(&("http://evil.com/x".to_string(), IocType::Url)));
        assert!(found.contains(&("192.168.29.128".to_string(), IocType::Ip)));
    }

    #[test]
    fn hashes_and_cves() {
        let found = scan("Sample d41d8cd98f00b204e9800998ecf8427e exploits CVE-2014-6271 badly");
        assert!(found.contains(&("d41d8cd98f00b204e9800998ecf8427e".to_string(), IocType::Hash)));
        assert!(found.contains(&("CVE-2014-6271".to_string(), IocType::Cve)));
        // 31 hex chars is not a hash.
        assert!(scan("d41d8cd98f00b204e9800998ecf8427 x").iter().all(|(_, t)| *t != IocType::Hash));
    }

    #[test]
    fn registry_keys() {
        let found = scan(r"persists via HKEY_LOCAL_MACHINE\Software\Run\Evil key");
        assert_eq!(
            found,
            vec![(r"HKEY_LOCAL_MACHINE\Software\Run\Evil".to_string(), IocType::Registry)]
        );
    }

    #[test]
    fn sentence_final_punctuation_trimmed() {
        let found = scan("read from /etc/passwd.");
        assert_eq!(found, vec![("/etc/passwd".to_string(), IocType::FilePath)]);
        let found = scan("connect to 192.168.29.128.");
        assert_eq!(found, vec![("192.168.29.128".to_string(), IocType::Ip)]);
    }

    #[test]
    fn ordinary_prose_yields_nothing() {
        assert!(scan("The attacker attempted lateral movement and/or persistence.").is_empty());
        assert!(scan("This is a test. Only text here, e.g. nothing.").is_empty());
        assert!(scan("").is_empty());
    }

    #[test]
    fn spans_are_byte_accurate() {
        let text = "read /etc/passwd now";
        let m = &scan_iocs(text)[0];
        assert_eq!(&text[m.start..m.end], "/etc/passwd");
    }

    #[test]
    fn type_helpers() {
        assert!(IocType::FilePath.is_file_like());
        assert!(IocType::FileName.is_file_like());
        assert!(!IocType::Ip.is_file_like());
        assert!(IocType::Ip.is_network_like());
        assert!(IocType::Domain.is_network_like());
        assert!(!IocType::Registry.is_network_like());
    }
}
