// Package synth generates the synthetic .com (and new-TLD) registration
// corpus that stands in for the paper's 102M-record crawl. Distributional
// parameters — registrar market shares, registrant country mixes, privacy
// service shares, blacklist skew, creation-date growth — are seeded from
// the paper's own Tables 3–9 and Figure 4, so the survey experiments
// (§6) recover the paper's shapes through the full parse pipeline.
package synth

import (
	"fmt"
	"strings"

	"repro/internal/templates"
)

// RegistrarInfo describes one registrar in the simulated ecosystem.
type RegistrarInfo struct {
	Name        string
	IANA        int
	URL         string
	WhoisServer string
	// SchemaID names the templates.Schema this registrar renders with.
	SchemaID string
	// ShareAll and Share2014 are relative sampling weights for domains
	// created before 2014 and in 2014 (Table 5's two columns).
	ShareAll, Share2014 float64
	// PrivacyRate is the fraction of this registrar's domains registered
	// through a privacy-protection service (drives Tables 6 and 7).
	PrivacyRate float64
	// PrivacyService is the service name used in protected records.
	PrivacyService string
	// BlacklistFactor scales the probability that a 2014 domain of this
	// registrar lands on the DBL (Table 9 skew).
	BlacklistFactor float64
	// CountryAffinity, when non-empty, reweights registrant-country
	// selection toward this registrar (Figure 5 mixes): a domain whose
	// registrant country appears here prefers this registrar.
	CountryAffinity map[string]float64
}

var registrarPool = []*RegistrarInfo{
	{Name: "GoDaddy.com, LLC", IANA: 146, URL: "http://www.godaddy.com", WhoisServer: "whois.godaddy.com",
		SchemaID: "icann-0", ShareAll: 34.2, Share2014: 34.4, PrivacyRate: 0.18,
		PrivacyService: "Domains By Proxy, LLC", BlacklistFactor: 0.6},
	{Name: "eNom, Inc.", IANA: 48, URL: "http://www.enom.com", WhoisServer: "whois.enom.com",
		SchemaID: "dots-0", ShareAll: 8.7, Share2014: 7.7, PrivacyRate: 0.28,
		PrivacyService: "Whois Privacy Protection Service, Inc.", BlacklistFactor: 2.9,
		CountryAffinity: map[string]float64{"US": 1.0, "CA": 2.0, "GB": 2.0}},
	{Name: "Network Solutions, LLC", IANA: 2, URL: "http://www.networksolutions.com", WhoisServer: "whois.networksolutions.com",
		SchemaID: "netsol-0", ShareAll: 5.0, Share2014: 4.3, PrivacyRate: 0.10,
		PrivacyService: "Perfect Privacy, LLC", BlacklistFactor: 0.8},
	{Name: "1&1 Internet AG", IANA: 83, URL: "http://www.1and1.com", WhoisServer: "whois.1and1.com",
		SchemaID: "icann-1", ShareAll: 3.0, Share2014: 2.0, PrivacyRate: 0.17,
		PrivacyService: "1&1 Internet Inc.", BlacklistFactor: 0.5,
		CountryAffinity: map[string]float64{"DE": 4.0, "US": 0.6}},
	{Name: "Wild West Domains, LLC", IANA: 440, URL: "http://www.wildwestdomains.com", WhoisServer: "whois.wildwestdomains.com",
		SchemaID: "icann-0", ShareAll: 2.6, Share2014: 2.4, PrivacyRate: 0.22,
		PrivacyService: "Domains By Proxy, LLC", BlacklistFactor: 0.7},
	{Name: "HiChina Zhicheng Technology Ltd.", IANA: 420, URL: "http://www.net.cn", WhoisServer: "whois.hichina.com",
		SchemaID: "pct-0", ShareAll: 2.1, Share2014: 3.7, PrivacyRate: 0.36,
		PrivacyService: "Aliyun Computing Co., Ltd", BlacklistFactor: 1.4,
		CountryAffinity: map[string]float64{"CN": 9.0, "HK": 3.0, "": 4.0, "US": 0.08}},
	{Name: "PDR Ltd. d/b/a PublicDomainRegistry.com", IANA: 303, URL: "http://www.publicdomainregistry.com", WhoisServer: "whois.publicdomainregistry.com",
		SchemaID: "icann-2", ShareAll: 2.1, Share2014: 3.2, PrivacyRate: 0.27,
		PrivacyService: "PrivacyProtect.org", BlacklistFactor: 1.5,
		CountryAffinity: map[string]float64{"IN": 6.0, "TR": 2.0, "VN": 2.0}},
	{Name: "Register.com, Inc.", IANA: 9, URL: "http://www.register.com", WhoisServer: "whois.register.com",
		SchemaID: "netsol-1", ShareAll: 2.0, Share2014: 2.1, PrivacyRate: 0.30,
		PrivacyService: "Perfect Privacy, LLC", BlacklistFactor: 2.4},
	{Name: "FastDomain Inc.", IANA: 1154, URL: "http://www.fastdomain.com", WhoisServer: "whois.fastdomain.com",
		SchemaID: "icann-3", ShareAll: 1.9, Share2014: 1.5, PrivacyRate: 0.33,
		PrivacyService: "FBO REGISTRANT", BlacklistFactor: 0.7},
	{Name: "GMO Internet, Inc. d/b/a Onamae.com", IANA: 49, URL: "http://www.onamae.com", WhoisServer: "whois.discount-domain.com",
		SchemaID: "jp-0", ShareAll: 1.8, Share2014: 3.0, PrivacyRate: 0.59,
		PrivacyService: "MuuMuuDomain by GMO Pepabo", BlacklistFactor: 8.5,
		CountryAffinity: map[string]float64{"JP": 18.0, "US": 0.15}},
	{Name: "Xin Net Technology Corporation", IANA: 120, URL: "http://www.xinnet.com", WhoisServer: "whois.paycenter.com.cn",
		SchemaID: "pct-1", ShareAll: 1.2, Share2014: 3.3, PrivacyRate: 0.12,
		PrivacyService: "Hidden by Whois Privacy Protection Service", BlacklistFactor: 2.2,
		CountryAffinity: map[string]float64{"CN": 7.0, "": 2.0, "US": 0.12}},
	{Name: "NameCheap, Inc.", IANA: 1068, URL: "http://www.namecheap.com", WhoisServer: "whois.namecheap.com",
		SchemaID: "icann-4", ShareAll: 1.4, Share2014: 1.8, PrivacyRate: 0.68,
		PrivacyService: "WhoisGuard, Inc.", BlacklistFactor: 1.1},
	{Name: "Tucows Domains Inc.", IANA: 69, URL: "http://www.tucows.com", WhoisServer: "whois.tucows.com",
		SchemaID: "lower-0", ShareAll: 1.5, Share2014: 1.2, PrivacyRate: 0.20,
		PrivacyService: "Contact Privacy Inc.", BlacklistFactor: 0.8,
		CountryAffinity: map[string]float64{"CA": 3.0}},
	{Name: "Melbourne IT Ltd", IANA: 13, URL: "http://www.melbourneit.com.au", WhoisServer: "whois.melbourneit.com",
		SchemaID: "icann-5", ShareAll: 1.1, Share2014: 0.7, PrivacyRate: 0.08,
		PrivacyService: "Private Registration", BlacklistFactor: 0.4,
		CountryAffinity: map[string]float64{"AU": 6.0, "JP": 2.5, "US": 1.2}},
	{Name: "DreamHost, LLC", IANA: 431, URL: "http://www.dreamhost.com", WhoisServer: "whois.dreamhost.com",
		SchemaID: "lower-1", ShareAll: 0.7, Share2014: 0.8, PrivacyRate: 0.78,
		PrivacyService: "Happy DreamHost Customer", BlacklistFactor: 0.6},
	{Name: "Moniker Online Services LLC", IANA: 228, URL: "http://www.moniker.com", WhoisServer: "whois.moniker.com",
		SchemaID: "dots-1", ShareAll: 0.7, Share2014: 0.5, PrivacyRate: 0.35,
		PrivacyService: "Moniker Privacy Services", BlacklistFactor: 7.0},
	{Name: "Name.com, Inc.", IANA: 625, URL: "http://www.name.com", WhoisServer: "whois.name.com",
		SchemaID: "icann-1", ShareAll: 0.8, Share2014: 0.9, PrivacyRate: 0.30,
		PrivacyService: "Whois Agent (Name.com)", BlacklistFactor: 2.3},
	{Name: "Bizcn.com, Inc.", IANA: 471, URL: "http://www.bizcn.com", WhoisServer: "whois.bizcn.com",
		SchemaID: "pct-2", ShareAll: 0.5, Share2014: 0.9, PrivacyRate: 0.15,
		PrivacyService: "Domain Whois Protection Service", BlacklistFactor: 3.4,
		CountryAffinity: map[string]float64{"CN": 6.0, "US": 0.12}},
	{Name: "OVH SAS", IANA: 433, URL: "http://www.ovh.com", WhoisServer: "whois.ovh.com",
		SchemaID: "lower-2", ShareAll: 0.8, Share2014: 0.9, PrivacyRate: 0.25,
		PrivacyService: "OVH Private Registration", BlacklistFactor: 0.7,
		CountryAffinity: map[string]float64{"FR": 7.0, "US": 0.3}},
	{Name: "Gandi SAS", IANA: 81, URL: "http://www.gandi.net", WhoisServer: "whois.gandi.net",
		SchemaID: "lower-3", ShareAll: 0.6, Share2014: 0.6, PrivacyRate: 0.22,
		PrivacyService: "Gandi Privacy Shield", BlacklistFactor: 0.5,
		CountryAffinity: map[string]float64{"FR": 5.0, "US": 0.3}},
	{Name: "Sakura Internet Inc.", IANA: 1523, URL: "http://www.sakura.ad.jp", WhoisServer: "whois.sakura.ad.jp",
		SchemaID: "jp-1", ShareAll: 0.5, Share2014: 0.7, PrivacyRate: 0.15,
		PrivacyService: "Sakura Whois Proxy", BlacklistFactor: 1.0,
		CountryAffinity: map[string]float64{"JP": 9.0, "US": 0.15}},
	{Name: "Key-Systems GmbH", IANA: 269, URL: "http://www.key-systems.net", WhoisServer: "whois.rrpproxy.net",
		SchemaID: "icann-2", ShareAll: 0.6, Share2014: 0.6, PrivacyRate: 0.18,
		PrivacyService: "c/o whoisproxy.com", BlacklistFactor: 1.2,
		CountryAffinity: map[string]float64{"DE": 4.0, "US": 0.4}},
	{Name: "Arsys Internet S.L.", IANA: 1292, URL: "http://www.arsys.es", WhoisServer: "whois.arsys.es",
		SchemaID: "lower-0", ShareAll: 0.5, Share2014: 0.4, PrivacyRate: 0.10,
		PrivacyService: "Private Registration", BlacklistFactor: 0.4,
		CountryAffinity: map[string]float64{"ES": 8.0, "MX": 2.0, "US": 0.2}},
	{Name: "Webnames Curacao B.V.", IANA: 1390, URL: "http://www.webnames.nl", WhoisServer: "whois.webnames.nl",
		SchemaID: "dots-2", ShareAll: 0.4, Share2014: 0.3, PrivacyRate: 0.12,
		PrivacyService: "Private Registration", BlacklistFactor: 0.9,
		CountryAffinity: map[string]float64{"NL": 6.0, "US": 0.25}},
	{Name: "Registro do Brasil LTDA", IANA: 1511, URL: "http://www.registrobr.com", WhoisServer: "whois.registrobr.com",
		SchemaID: "lower-1", ShareAll: 0.4, Share2014: 0.4, PrivacyRate: 0.08,
		PrivacyService: "Private Registration", BlacklistFactor: 0.6,
		CountryAffinity: map[string]float64{"BR": 9.0, "US": 0.12}},
	{Name: "Mat Bao Corporation", IANA: 1586, URL: "http://www.matbao.net", WhoisServer: "whois.matbao.net",
		SchemaID: "icann-3", ShareAll: 0.2, Share2014: 0.4, PrivacyRate: 0.10,
		PrivacyService: "Private Registration", BlacklistFactor: 4.0,
		CountryAffinity: map[string]float64{"VN": 10.0, "US": 0.12}},
	{Name: "Nics Telekomunikasyon A.S.", IANA: 1454, URL: "http://www.nicproxy.com", WhoisServer: "whois.nicproxy.com",
		SchemaID: "icann-4", ShareAll: 0.3, Share2014: 0.5, PrivacyRate: 0.14,
		PrivacyService: "Whois Privacy (nicproxy)", BlacklistFactor: 2.6,
		CountryAffinity: map[string]float64{"TR": 10.0, "US": 0.15}},
	{Name: "Regional Network Information Center, JSC", IANA: 1331, URL: "http://www.nic.ru", WhoisServer: "whois.nic.ru",
		SchemaID: "lower-3", ShareAll: 0.3, Share2014: 0.4, PrivacyRate: 0.20,
		PrivacyService: "Privacy protection service - whoisproxy.ru", BlacklistFactor: 2.0,
		CountryAffinity: map[string]float64{"RU": 10.0, "US": 0.12}},
	{Name: "Interlink Co., Ltd.", IANA: 1472, URL: "http://www.interlink.or.jp", WhoisServer: "whois.interlink.or.jp",
		SchemaID: "jp-2", ShareAll: 0.2, Share2014: 0.3, PrivacyRate: 0.25,
		PrivacyService: "Whois Privacy Protection Service by onamae", BlacklistFactor: 1.8,
		CountryAffinity: map[string]float64{"JP": 8.0, "US": 0.15}},
	{Name: "MarkMonitor Inc.", IANA: 292, URL: "http://www.markmonitor.com", WhoisServer: "whois.markmonitor.com",
		SchemaID: "icann-0", ShareAll: 0.3, Share2014: 0.2, PrivacyRate: 0.0,
		PrivacyService: "", BlacklistFactor: 0.05},
	{Name: "CSC Corporate Domains, Inc.", IANA: 299, URL: "http://www.cscglobal.com", WhoisServer: "whois.corporatedomains.com",
		SchemaID: "icann-5", ShareAll: 0.3, Share2014: 0.2, PrivacyRate: 0.0,
		PrivacyService: "", BlacklistFactor: 0.05},
	{Name: "Launchpad.com Inc.", IANA: 955, URL: "http://www.launchpad.com", WhoisServer: "whois.launchpad.com",
		SchemaID: "dots-3", ShareAll: 0.5, Share2014: 0.5, PrivacyRate: 0.30,
		PrivacyService: "Private Registration", BlacklistFactor: 1.0},
	{Name: "Vitalwerks Internet Solutions LLC", IANA: 1327, URL: "http://www.noip.com", WhoisServer: "whois.noip.com",
		SchemaID: "odd-0", ShareAll: 0.3, Share2014: 0.2, PrivacyRate: 0.10,
		PrivacyService: "Private Registration", BlacklistFactor: 1.1},
	{Name: "Nordnet AB", IANA: 1617, URL: "http://www.nordnet.se", WhoisServer: "whois.nordnet.se",
		SchemaID: "odd-2", ShareAll: 0.2, Share2014: 0.2, PrivacyRate: 0.06,
		PrivacyService: "Private Registration", BlacklistFactor: 0.4,
		CountryAffinity: map[string]float64{"DE": 2.0, "NL": 2.0}},
	{Name: "Domain.com, LLC", IANA: 886, URL: "http://www.domain.com", WhoisServer: "whois.domain.com",
		SchemaID: "odd-1", ShareAll: 0.5, Share2014: 0.4, PrivacyRate: 0.24,
		PrivacyService: "Domain Privacy Service FBO Registrant", BlacklistFactor: 0.9},
	{Name: "Hostinger UAB", IANA: 1636, URL: "http://www.hostinger.com", WhoisServer: "whois.hostinger.com",
		SchemaID: "netsol-2", ShareAll: 0.3, Share2014: 0.5, PrivacyRate: 0.26,
		PrivacyService: "Privacy Protect LLC", BlacklistFactor: 1.6},
	{Name: "Korea Information Certificate Authority", IANA: 1489, URL: "http://www.kicassl.com", WhoisServer: "whois.kicassl.com",
		SchemaID: "netsol-3", ShareAll: 0.2, Share2014: 0.3, PrivacyRate: 0.10,
		PrivacyService: "Private Registration", BlacklistFactor: 1.3,
		CountryAffinity: map[string]float64{"KR": 10.0, "US": 0.15}},
	{Name: "Instra Corporation Pty Ltd", IANA: 1376, URL: "http://www.instra.com", WhoisServer: "whois.instra.com",
		SchemaID: "jp-0", ShareAll: 0.2, Share2014: 0.2, PrivacyRate: 0.15,
		PrivacyService: "Instra Privacy", BlacklistFactor: 0.8,
		CountryAffinity: map[string]float64{"AU": 5.0}},
	{Name: "Dotster, Inc.", IANA: 115, URL: "http://www.dotster.com", WhoisServer: "whois.dotster.com",
		SchemaID: "legacy-0", ShareAll: 0.5, Share2014: 0.3, PrivacyRate: 0.12,
		PrivacyService: "Private Registration", BlacklistFactor: 0.9},
	{Name: "Netfirms, Inc.", IANA: 581, URL: "http://www.netfirms.com", WhoisServer: "whois.netfirms.com",
		SchemaID: "legacy-1", ShareAll: 0.3, Share2014: 0.2, PrivacyRate: 0.15,
		PrivacyService: "Private Registration", BlacklistFactor: 0.7},
	{Name: "Directi Internet Solutions", IANA: 1111, URL: "http://www.directi.com", WhoisServer: "whois.directi.com",
		SchemaID: "banner-0", ShareAll: 0.4, Share2014: 0.5, PrivacyRate: 0.22,
		PrivacyService: "Privacy Protection Service India", BlacklistFactor: 1.8,
		CountryAffinity: map[string]float64{"IN": 4.0}},
	{Name: "Hover (Tucows)", IANA: 1587, URL: "http://www.hover.com", WhoisServer: "whois.hover.com",
		SchemaID: "banner-1", ShareAll: 0.2, Share2014: 0.2, PrivacyRate: 0.30,
		PrivacyService: "Contact Privacy Inc.", BlacklistFactor: 0.4,
		CountryAffinity: map[string]float64{"CA": 2.5}},
	{Name: "Interdomain S.A.", IANA: 1371, URL: "http://www.interdomain.es", WhoisServer: "whois.interdomain.es",
		SchemaID: "intl-es", ShareAll: 0.3, Share2014: 0.2, PrivacyRate: 0.08,
		PrivacyService: "Private Registration", BlacklistFactor: 0.4,
		CountryAffinity: map[string]float64{"ES": 6.0, "MX": 3.0, "US": 0.2}},
	{Name: "Nordnet France SA", IANA: 1619, URL: "http://www.nordnet.fr", WhoisServer: "whois.nordnet.fr",
		SchemaID: "intl-fr", ShareAll: 0.2, Share2014: 0.2, PrivacyRate: 0.10,
		PrivacyService: "Private Registration", BlacklistFactor: 0.4,
		CountryAffinity: map[string]float64{"FR": 6.0, "US": 0.2}},
	{Name: "AlbaNameWorks AB", IANA: 1702, URL: "http://www.albanameworks.se", WhoisServer: "whois.albanameworks.se",
		SchemaID: "noline-0", ShareAll: 0.15, Share2014: 0.1, PrivacyRate: 0.05,
		PrivacyService: "Private Registration", BlacklistFactor: 0.5,
		CountryAffinity: map[string]float64{"DE": 2.0, "NL": 2.0, "US": 0.4}},
}

// longtailNames supplies realistic reseller identities for the automatic
// long-tail registrars below.
var longtailNames = []string{
	"Dynadot LLC", "Above.com Pty Ltd", "NetEarth One Inc.", "EuroDNS S.A.",
	"Crazy Domains FZ-LLC", "WebNIC.cc", "Realtime Register B.V.",
	"Domain Bank Inc.", "Hexonet GmbH", "Marcaria.com International",
	"Papaki Ltd", "Vautron Rechenzentrum AG", "Soluciones Corporativas IP",
	"Alpine Domains Inc.", "TLD Registrar Solutions Ltd", "Hosting Ukraine LLC",
	"Beget LLC", "Openprovider B.V.", "Porkbun LLC", "Sav.com LLC",
}

// init appends one small "long-tail" registrar for every com schema the
// hand-curated pool does not reference, so the whole format pool appears
// in generated corpora — mirroring the hundreds of small resellers behind
// deft-whois's 403 com templates.
func init() {
	referenced := make(map[string]bool)
	for _, r := range registrarPool {
		referenced[r.SchemaID] = true
	}
	i := 0
	for _, s := range templates.ComSchemas() {
		if referenced[s.ID] {
			continue
		}
		name := fmt.Sprintf("Longtail Registrar %d", i+1)
		if i < len(longtailNames) {
			name = longtailNames[i]
		}
		host := strings.ToLower(strings.Fields(name)[0])
		registrarPool = append(registrarPool, &RegistrarInfo{
			Name:        name,
			IANA:        3000 + i,
			URL:         "http://www." + host + ".example",
			WhoisServer: "whois." + host + ".example",
			SchemaID:    s.ID,
			ShareAll:    0.15, Share2014: 0.15,
			PrivacyRate:     0.15,
			PrivacyService:  "Private Registration",
			BlacklistFactor: 1.0,
		})
		i++
	}
}

// NewTLDRegistrar returns the single registrar that operates records for a
// new TLD (each new TLD is owned by one registrar, §5.2).
func NewTLDRegistrar(tld string) *RegistrarInfo {
	return &RegistrarInfo{
		Name:        tld + " Registry Services",
		IANA:        9000,
		URL:         "http://www.nic." + tld,
		WhoisServer: "whois.nic." + tld,
		SchemaID:    "tld-" + tld,
		ShareAll:    1, Share2014: 1,
	}
}
