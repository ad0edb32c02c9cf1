// Package identity generates deterministic synthetic registrant contact
// identities — names, organizations, postal addresses, phone numbers and
// e-mail addresses — with per-country shapes (postcode formats, phone
// prefixes, romanized name pools). It stands in for the live registrant
// data of the paper's 102M-record crawl; see DESIGN.md §2.
package identity

import (
	"fmt"
	"math/rand"
	"strings"
)

// Person is one synthetic contact identity.
type Person struct {
	Name        string
	Org         string
	Street      string
	Street2     string // optional second address line ("" most of the time)
	City        string
	State       string
	Postcode    string
	CountryCode string // ISO-3166 alpha-2, upper case
	CountryName string
	Phone       string
	Fax         string // optional
	Email       string
}

// Country describes the address conventions of one country in the pool.
type Country struct {
	Code      string
	Name      string
	DialCode  string
	Cities    []string
	States    []string // empty if the country block omits states
	FirstName []string
	LastName  []string
	// PostcodeFmt uses '#' for a random digit and 'A' for a random letter.
	PostcodeFmt string
}

// Countries returns the country pool, keyed by ISO code. The pool covers
// every country appearing in the paper's Tables 3 and 8.
func Countries() map[string]*Country { return countryPool }

// CountryByCode returns the country with the given ISO code, or nil.
func CountryByCode(code string) *Country { return countryPool[strings.ToUpper(code)] }

var westernFirst = []string{
	"James", "Mary", "John", "Patricia", "Robert", "Jennifer", "Michael",
	"Linda", "David", "Elizabeth", "William", "Susan", "Richard", "Jessica",
	"Thomas", "Sarah", "Charles", "Karen", "Daniel", "Nancy", "Matthew",
	"Lisa", "Anthony", "Margaret", "Mark", "Sandra", "Paul", "Ashley",
	"Steven", "Emily", "Andrew", "Donna", "Kenneth", "Michelle", "George",
	"Carol", "Joshua", "Amanda", "Kevin", "Melissa", "Brian", "Deborah",
}

var westernLast = []string{
	"Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
	"Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
	"Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson", "Martin",
	"Lee", "Thompson", "White", "Harris", "Clark", "Lewis", "Robinson",
	"Walker", "Young", "Allen", "King", "Wright", "Scott", "Green", "Baker",
	"Adams", "Nelson", "Hill", "Campbell", "Mitchell", "Carter", "Roberts",
}

var chineseFirst = []string{
	"Wei", "Fang", "Jun", "Min", "Lei", "Yan", "Tao", "Juan", "Ming",
	"Xia", "Qiang", "Hong", "Jie", "Ying", "Bo", "Li", "Hao", "Mei",
	"Gang", "Ling", "Peng", "Na", "Chao", "Xiu", "Feng", "Lan",
}

var chineseLast = []string{
	"Wang", "Li", "Zhang", "Liu", "Chen", "Yang", "Huang", "Zhao", "Wu",
	"Zhou", "Xu", "Sun", "Ma", "Zhu", "Hu", "Guo", "He", "Gao", "Lin",
	"Luo", "Zheng", "Liang", "Xie", "Tang", "Song", "Deng",
}

var japaneseFirst = []string{
	"Hiroshi", "Yuko", "Takashi", "Keiko", "Kenji", "Yumi", "Satoshi",
	"Akiko", "Kazuo", "Naoko", "Makoto", "Emi", "Taro", "Hanako",
	"Shinji", "Mariko", "Daisuke", "Ayumi", "Koji", "Rie",
}

var japaneseLast = []string{
	"Sato", "Suzuki", "Takahashi", "Tanaka", "Watanabe", "Ito", "Yamamoto",
	"Nakamura", "Kobayashi", "Kato", "Yoshida", "Yamada", "Sasaki",
	"Yamaguchi", "Saito", "Matsumoto", "Inoue", "Kimura", "Hayashi",
	"Shimizu",
}

var indianFirst = []string{
	"Amit", "Priya", "Rahul", "Anjali", "Vijay", "Sunita", "Sanjay",
	"Kavita", "Rajesh", "Neha", "Arun", "Pooja", "Suresh", "Deepa",
	"Anil", "Meera", "Ravi", "Shreya", "Manoj", "Divya",
}

var indianLast = []string{
	"Sharma", "Patel", "Singh", "Kumar", "Gupta", "Verma", "Reddy",
	"Joshi", "Mehta", "Nair", "Rao", "Desai", "Iyer", "Chopra",
	"Malhotra", "Agarwal", "Banerjee", "Mishra", "Pandey", "Shah",
}

var turkishFirst = []string{
	"Mehmet", "Ayse", "Mustafa", "Fatma", "Ahmet", "Emine", "Ali",
	"Hatice", "Huseyin", "Zeynep", "Hasan", "Elif", "Ibrahim", "Meryem",
}

var turkishLast = []string{
	"Yilmaz", "Kaya", "Demir", "Celik", "Sahin", "Yildiz", "Ozturk",
	"Aydin", "Arslan", "Dogan", "Kilic", "Aslan", "Cetin", "Kara",
}

var vietnameseFirst = []string{
	"Anh", "Binh", "Cuong", "Dung", "Giang", "Hanh", "Hieu", "Hoa",
	"Hung", "Lan", "Linh", "Minh", "Nam", "Phuong", "Quan", "Thao",
}

var vietnameseLast = []string{
	"Nguyen", "Tran", "Le", "Pham", "Hoang", "Phan", "Vu", "Vo",
	"Dang", "Bui", "Do", "Ho", "Ngo", "Duong",
}

var russianFirst = []string{
	"Alexei", "Olga", "Dmitri", "Natalia", "Sergei", "Elena", "Ivan",
	"Tatiana", "Mikhail", "Svetlana", "Andrei", "Irina", "Nikolai", "Anna",
}

var russianLast = []string{
	"Ivanov", "Smirnov", "Kuznetsov", "Popov", "Vasiliev", "Petrov",
	"Sokolov", "Mikhailov", "Novikov", "Fedorov", "Morozov", "Volkov",
}

var countryPool = map[string]*Country{
	"US": {
		Code: "US", Name: "United States", DialCode: "+1",
		Cities:    []string{"New York", "Los Angeles", "Chicago", "Houston", "Phoenix", "Philadelphia", "San Antonio", "San Diego", "Dallas", "Austin", "Seattle", "Denver", "Boston", "Portland", "Atlanta", "Miami"},
		States:    []string{"NY", "CA", "IL", "TX", "AZ", "PA", "WA", "CO", "MA", "OR", "GA", "FL", "OH", "NC", "MI", "VA"},
		FirstName: westernFirst, LastName: westernLast, PostcodeFmt: "#####",
	},
	"CN": {
		Code: "CN", Name: "China", DialCode: "+86",
		Cities:    []string{"Beijing", "Shanghai", "Guangzhou", "Shenzhen", "Hangzhou", "Chengdu", "Nanjing", "Wuhan", "Xiamen", "Tianjin", "Suzhou", "Changsha"},
		States:    []string{"Beijing", "Shanghai", "Guangdong", "Zhejiang", "Sichuan", "Jiangsu", "Hubei", "Fujian", "Tianjin", "Hunan"},
		FirstName: chineseFirst, LastName: chineseLast, PostcodeFmt: "######",
	},
	"GB": {
		Code: "GB", Name: "United Kingdom", DialCode: "+44",
		Cities:    []string{"London", "Manchester", "Birmingham", "Leeds", "Glasgow", "Liverpool", "Bristol", "Sheffield", "Edinburgh", "Cardiff"},
		States:    []string{"England", "Scotland", "Wales", "Greater London", "West Midlands"},
		FirstName: westernFirst, LastName: westernLast, PostcodeFmt: "AA# #AA",
	},
	"DE": {
		Code: "DE", Name: "Germany", DialCode: "+49",
		Cities:    []string{"Berlin", "Hamburg", "Munich", "Cologne", "Frankfurt", "Stuttgart", "Dusseldorf", "Leipzig", "Dresden", "Hannover"},
		States:    []string{"Berlin", "Hamburg", "Bavaria", "NRW", "Hessen", "Sachsen"},
		FirstName: westernFirst, LastName: []string{"Mueller", "Schmidt", "Schneider", "Fischer", "Weber", "Meyer", "Wagner", "Becker", "Schulz", "Hoffmann", "Koch", "Bauer", "Richter", "Klein", "Wolf"},
		PostcodeFmt: "#####",
	},
	"FR": {
		Code: "FR", Name: "France", DialCode: "+33",
		Cities:    []string{"Paris", "Marseille", "Lyon", "Toulouse", "Nice", "Nantes", "Strasbourg", "Montpellier", "Bordeaux", "Lille"},
		States:    []string{"Ile-de-France", "PACA", "Auvergne-Rhone-Alpes", "Occitanie", "Nouvelle-Aquitaine"},
		FirstName: westernFirst, LastName: []string{"Martin", "Bernard", "Dubois", "Thomas", "Robert", "Richard", "Petit", "Durand", "Leroy", "Moreau", "Simon", "Laurent", "Lefebvre", "Michel", "Garcia"},
		PostcodeFmt: "#####",
	},
	"CA": {
		Code: "CA", Name: "Canada", DialCode: "+1",
		Cities:    []string{"Toronto", "Montreal", "Vancouver", "Calgary", "Edmonton", "Ottawa", "Winnipeg", "Quebec City", "Hamilton", "Halifax"},
		States:    []string{"ON", "QC", "BC", "AB", "MB", "NS"},
		FirstName: westernFirst, LastName: westernLast, PostcodeFmt: "A#A #A#",
	},
	"ES": {
		Code: "ES", Name: "Spain", DialCode: "+34",
		Cities:    []string{"Madrid", "Barcelona", "Valencia", "Seville", "Zaragoza", "Malaga", "Bilbao", "Murcia"},
		States:    []string{"Madrid", "Catalonia", "Valencia", "Andalusia", "Aragon"},
		FirstName: westernFirst, LastName: []string{"Garcia", "Rodriguez", "Gonzalez", "Fernandez", "Lopez", "Martinez", "Sanchez", "Perez", "Gomez", "Martin", "Jimenez", "Ruiz"},
		PostcodeFmt: "#####",
	},
	"AU": {
		Code: "AU", Name: "Australia", DialCode: "+61",
		Cities:    []string{"Sydney", "Melbourne", "Brisbane", "Perth", "Adelaide", "Canberra", "Hobart", "Darwin"},
		States:    []string{"NSW", "VIC", "QLD", "WA", "SA", "ACT"},
		FirstName: westernFirst, LastName: westernLast, PostcodeFmt: "####",
	},
	"JP": {
		Code: "JP", Name: "Japan", DialCode: "+81",
		Cities:    []string{"Tokyo", "Osaka", "Yokohama", "Nagoya", "Sapporo", "Fukuoka", "Kobe", "Kyoto", "Sendai", "Hiroshima"},
		States:    []string{"Tokyo", "Osaka", "Kanagawa", "Aichi", "Hokkaido", "Fukuoka", "Hyogo", "Kyoto"},
		FirstName: japaneseFirst, LastName: japaneseLast, PostcodeFmt: "###-####",
	},
	"IN": {
		Code: "IN", Name: "India", DialCode: "+91",
		Cities:    []string{"Mumbai", "Delhi", "Bangalore", "Hyderabad", "Chennai", "Kolkata", "Pune", "Ahmedabad", "Jaipur", "Lucknow"},
		States:    []string{"Maharashtra", "Delhi", "Karnataka", "Telangana", "Tamil Nadu", "West Bengal", "Gujarat", "Rajasthan"},
		FirstName: indianFirst, LastName: indianLast, PostcodeFmt: "######",
	},
	"TR": {
		Code: "TR", Name: "Turkey", DialCode: "+90",
		Cities:    []string{"Istanbul", "Ankara", "Izmir", "Bursa", "Antalya", "Adana", "Konya", "Gaziantep"},
		States:    []string{"Istanbul", "Ankara", "Izmir", "Bursa", "Antalya"},
		FirstName: turkishFirst, LastName: turkishLast, PostcodeFmt: "#####",
	},
	"VN": {
		Code: "VN", Name: "Vietnam", DialCode: "+84",
		Cities:    []string{"Hanoi", "Ho Chi Minh City", "Da Nang", "Hai Phong", "Can Tho", "Hue"},
		States:    []string{"Hanoi", "Ho Chi Minh", "Da Nang", "Hai Phong"},
		FirstName: vietnameseFirst, LastName: vietnameseLast, PostcodeFmt: "######",
	},
	"RU": {
		Code: "RU", Name: "Russia", DialCode: "+7",
		Cities:    []string{"Moscow", "Saint Petersburg", "Novosibirsk", "Yekaterinburg", "Kazan", "Samara"},
		States:    []string{"Moscow", "Saint Petersburg", "Novosibirsk Oblast", "Sverdlovsk Oblast", "Tatarstan"},
		FirstName: russianFirst, LastName: russianLast, PostcodeFmt: "######",
	},
	"HK": {
		Code: "HK", Name: "Hong Kong", DialCode: "+852",
		Cities:    []string{"Hong Kong", "Kowloon", "Tsuen Wan", "Sha Tin"},
		States:    nil,
		FirstName: chineseFirst, LastName: chineseLast, PostcodeFmt: "",
	},
	"NL": {
		Code: "NL", Name: "Netherlands", DialCode: "+31",
		Cities:    []string{"Amsterdam", "Rotterdam", "The Hague", "Utrecht", "Eindhoven"},
		States:    []string{"Noord-Holland", "Zuid-Holland", "Utrecht", "Noord-Brabant"},
		FirstName: westernFirst, LastName: []string{"de Jong", "Jansen", "de Vries", "van den Berg", "van Dijk", "Bakker", "Visser", "Smit"},
		PostcodeFmt: "#### AA",
	},
	"BR": {
		Code: "BR", Name: "Brazil", DialCode: "+55",
		Cities:    []string{"Sao Paulo", "Rio de Janeiro", "Brasilia", "Salvador", "Fortaleza", "Belo Horizonte", "Curitiba"},
		States:    []string{"SP", "RJ", "DF", "BA", "CE", "MG", "PR"},
		FirstName: westernFirst, LastName: []string{"Silva", "Santos", "Oliveira", "Souza", "Lima", "Pereira", "Ferreira", "Costa", "Rodrigues", "Almeida"},
		PostcodeFmt: "#####-###",
	},
	"IT": {
		Code: "IT", Name: "Italy", DialCode: "+39",
		Cities:    []string{"Rome", "Milan", "Naples", "Turin", "Palermo", "Genoa", "Bologna", "Florence"},
		States:    []string{"Lazio", "Lombardy", "Campania", "Piedmont", "Sicily", "Tuscany"},
		FirstName: westernFirst, LastName: []string{"Rossi", "Russo", "Ferrari", "Esposito", "Bianchi", "Romano", "Colombo", "Ricci", "Marino", "Greco"},
		PostcodeFmt: "#####",
	},
	"KR": {
		Code: "KR", Name: "South Korea", DialCode: "+82",
		Cities:      []string{"Seoul", "Busan", "Incheon", "Daegu", "Daejeon", "Gwangju"},
		States:      []string{"Seoul", "Busan", "Gyeonggi", "Incheon"},
		FirstName:   []string{"Minjun", "Seoyeon", "Jihun", "Jiwoo", "Hyunwoo", "Soyeon", "Junho", "Yuna", "Donghyun", "Eunji"},
		LastName:    []string{"Kim", "Lee", "Park", "Choi", "Jung", "Kang", "Cho", "Yoon", "Jang", "Lim"},
		PostcodeFmt: "#####",
	},
	"MX": {
		Code: "MX", Name: "Mexico", DialCode: "+52",
		Cities:    []string{"Mexico City", "Guadalajara", "Monterrey", "Puebla", "Tijuana", "Leon"},
		States:    []string{"CDMX", "Jalisco", "Nuevo Leon", "Puebla", "Baja California"},
		FirstName: westernFirst, LastName: []string{"Hernandez", "Garcia", "Martinez", "Lopez", "Gonzalez", "Perez", "Rodriguez", "Sanchez", "Ramirez", "Cruz"},
		PostcodeFmt: "#####",
	},
}

var streetSuffixes = []string{"St", "Ave", "Rd", "Blvd", "Lane", "Drive", "Way", "Court", "Street", "Road"}

var streetNames = []string{
	"Main", "Oak", "Maple", "Cedar", "Pine", "Elm", "Washington", "Lake",
	"Hill", "Park", "Sunset", "River", "Spring", "Church", "Market",
	"Broad", "Center", "Union", "Liberty", "Franklin", "Highland",
	"Jackson", "Madison", "Harbor", "Garden", "Forest", "Meadow",
}

var orgSuffixes = []string{"LLC", "Inc.", "Ltd.", "Co.", "Group", "Holdings", "Solutions", "Media", "Labs", "Studio", "Technologies", "Consulting", "Enterprises", "Partners"}

var orgStems = []string{
	"Bright", "Blue", "Global", "Pacific", "Northern", "Summit", "Vertex",
	"Prime", "Atlas", "Nova", "Pioneer", "Cascade", "Horizon", "Quantum",
	"Stellar", "Apex", "Fusion", "Beacon", "Crest", "Orbit", "Zenith",
	"Silver", "Golden", "Rapid", "Swift", "Solid", "Clear", "Smart",
}

var emailDomains = []string{
	"gmail.com", "yahoo.com", "hotmail.com", "outlook.com", "aol.com",
	"mail.com", "163.com", "qq.com", "126.com", "yandex.ru", "web.de",
	"gmx.de", "orange.fr", "naver.com", "yahoo.co.jp",
}

// Generator produces deterministic identities from a seeded PRNG.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a Generator seeded for reproducibility.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// Postcode renders a country's postcode format.
func Postcode(rng *rand.Rand, format string) string {
	if format == "" {
		return ""
	}
	var b strings.Builder
	for _, c := range format {
		switch c {
		case '#':
			b.WriteByte(byte('0' + rng.Intn(10)))
		case 'A':
			b.WriteByte(byte('A' + rng.Intn(26)))
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// Phone renders an international phone number with the country dial code.
func Phone(rng *rand.Rand, dial string) string {
	area := 100 + rng.Intn(900)
	a := 100 + rng.Intn(900)
	b := 1000 + rng.Intn(9000)
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("%s.%d.%d%d", dial, area, a, b)
	case 1:
		return fmt.Sprintf("%s-%d-%d-%d", dial, area, a, b)
	default:
		return fmt.Sprintf("%s %d %d%d", dial, area, a, b)
	}
}

// Person generates a full identity in the given country. hasOrg controls
// whether an organization is attached (about half of real registrants).
func (g *Generator) Person(countryCode string, hasOrg bool) Person {
	c := CountryByCode(countryCode)
	if c == nil {
		c = countryPool["US"]
	}
	rng := g.rng
	first := pick(rng, c.FirstName)
	last := pick(rng, c.LastName)
	p := Person{
		Name:        first + " " + last,
		Street:      fmt.Sprintf("%d %s %s", 1+rng.Intn(9999), pick(rng, streetNames), pick(rng, streetSuffixes)),
		City:        pick(rng, c.Cities),
		CountryCode: c.Code,
		CountryName: c.Name,
		Postcode:    Postcode(rng, c.PostcodeFmt),
		Phone:       Phone(rng, c.DialCode),
	}
	if len(c.States) > 0 {
		p.State = pick(rng, c.States)
	}
	if rng.Float64() < 0.15 {
		p.Street2 = fmt.Sprintf("Suite %d", 1+rng.Intn(900))
	}
	if rng.Float64() < 0.3 {
		p.Fax = Phone(rng, c.DialCode)
	}
	if hasOrg {
		p.Org = pick(rng, orgStems) + " " + pick(rng, orgStems) + " " + pick(rng, orgSuffixes)
	}
	user := strings.ToLower(strings.ReplaceAll(first, " ", "")) + "." + strings.ToLower(strings.ReplaceAll(last, " ", ""))
	if rng.Intn(2) == 0 {
		user = fmt.Sprintf("%s%d", strings.ToLower(last), rng.Intn(1000))
	}
	p.Email = user + "@" + pick(rng, emailDomains)
	return p
}
